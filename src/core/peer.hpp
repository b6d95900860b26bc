#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "gossip/protocol.hpp"
#include "index/data_store.hpp"
#include "search/candidate_cache.hpp"
#include "search/distributed.hpp"

/// \file peer.hpp
/// The runtime-agnostic core of a PlanetP peer (§2–§3): publish into the
/// local store and announce the new Bloom filter through gossip, keep the
/// view of everyone's filters warm, assemble ranked searches and serve
/// remote ranked queries. core::Node (in-process) and net::LiveNode (TCP)
/// are thin adapters over it that move messages and contact peers. Peer
/// takes no locks and does no I/O: LiveNode holds its mu_ around each call
/// except serve_ranked, which ranks a published epoch snapshot.

namespace planetp::core {

class Peer {
 public:
  /// \p gossip_rng seeds the gossip protocol; each runtime keeps its own.
  Peer(gossip::PeerId id, const PeerConfig& config, Rng gossip_rng);

  gossip::PeerId id() const { return id_; }
  index::DataStore& store() { return store_; }
  const index::DataStore& store() const { return store_; }
  gossip::Protocol& protocol() { return protocol_; }
  const gossip::Protocol& protocol() const { return protocol_; }
  search::CandidateCache& candidate_cache() { return cache_; }
  const search::CandidateCache& candidate_cache() const { return cache_; }

  /// Apply a store change, then hand the gossip protocol the filter's XOR
  /// diff against the last announcement plus its full wire (at \p now).
  index::DocumentId publish(std::string xml, TimePoint now);
  bool unpublish(index::DocumentId doc, TimePoint now);
  bool republish(index::DocumentId doc, std::string xml, TimePoint now);

  /// Golomb wire of the current store filter (join and bootstrap records).
  std::vector<std::uint8_t> filter_wire() const;

  /// Decoded Bloom filter of \p peer as recorded in our directory (nullptr
  /// when unknown). The cache stores the record's Golomb wire bytes at rest,
  /// keyed by the record version, and decodes on demand; the returned
  /// shared_ptr pins the decoded filter across any LRU eviction
  /// (candidate_cache.max_decoded_bytes). Our own filter is projected from
  /// the counting filter once per store().filter_version().
  std::shared_ptr<const bloom::BloomFilter> filter_of(gossip::PeerId peer) const;

  /// Gossip on_apply hook: a strictly newer rumor for \p payload.origin was
  /// applied. XOR filter diffs are applied surgically (only cached terms
  /// whose bits the diff touches are fixed), rejoin version bumps are
  /// recorded without re-decoding, and anything else drops the stale filter
  /// for lazy re-decode by filter_of.
  void on_rumor_applied(const gossip::RumorPayload& payload);

  /// Gossip on_expire hook: \p peer expired from the directory (T_dead).
  void on_peer_expired(gossip::PeerId peer);

  /// Peers other than us whose filters contain every term, ascending by id;
  /// offline peers included. A term-less conjunction matches nothing.
  std::vector<gossip::PeerId> candidates(const std::vector<std::string>& terms) const;

  /// Everything §5.2's tfipf_search needs besides the terms and a contact
  /// function.
  struct RankedPlan {
    /// One filter per online directory record with a filter, us last — our
    /// own documents compete in the ranking too.
    std::vector<search::PeerFilter> view;
    /// Shared ownership of the view's filters: a gossip update or LRU
    /// eviction swaps the cache's copy without invalidating this query.
    std::vector<std::shared_ptr<const bloom::BloomFilter>> pins;
    search::DistributedSearchOptions options;  ///< no clock/sleep hooks set
  };
  RankedPlan plan_ranked(std::size_t k) const;

  /// Feed query-contact outcomes into the directory: repeated failures make
  /// a peer SUSPECT (demoted in future rankings, eventually marked offline);
  /// any success clears the suspicion. Outcomes for ourselves are ignored.
  void record_contact(gossip::PeerId peer, bool ok, TimePoint now);
  void record_outcomes(const std::vector<search::PeerOutcome>& outcomes, TimePoint now);

  /// Evaluate a remote ranked query (eq. 2 with the searcher's term weights)
  /// against the published epoch snapshot: the top query.k matches that rank
  /// strictly before query.floor (search::cut_to_query). The only serving
  /// rule; a bare weights map asks for every match.
  std::vector<search::ScoredDoc> serve_ranked(const search::PeerQuery& query) const;

 private:
  void announce(std::size_t terms_before, TimePoint now);

  gossip::PeerId id_;
  PeerConfig config_;
  index::DataStore store_;
  gossip::Protocol protocol_;
  bloom::BloomFilter last_announced_;  ///< diff base for filter-change rumors
  /// Decoded-filter store + term→candidate cache + probe kernel (the query
  /// hot path). mutable: filter_of fills it lazily from const accessors; the
  /// cache itself is internally synchronized.
  mutable search::CandidateCache cache_;
};

}  // namespace planetp::core
