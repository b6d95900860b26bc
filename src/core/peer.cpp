#include "core/peer.hpp"

#include <algorithm>

#include "bloom/wire.hpp"

namespace planetp::core {

namespace {

std::vector<std::uint8_t> wire_of(const bloom::BloomFilter& filter) {
  ByteWriter w;
  bloom::encode_filter(w, filter);
  return w.take();
}

}  // namespace

Peer::Peer(gossip::PeerId id, const PeerConfig& config, Rng gossip_rng)
    : id_(id),
      config_(config),
      store_(id, config.bloom, config.analyzer),
      protocol_(id, config.gossip, gossip_rng),
      last_announced_(config.bloom),
      cache_(config.candidate_cache) {}

void Peer::announce(std::size_t terms_before, TimePoint now) {
  const std::size_t terms = store_.num_terms();
  // Materialize the filter once; the diff and the full wire both encode it.
  const bloom::BloomFilter current = store_.bloom_filter();
  ByteWriter diff_writer;
  bloom::encode_diff(diff_writer, current.diff_from(last_announced_));
  protocol_.local_filter_change(
      static_cast<std::uint32_t>(terms),
      static_cast<std::uint32_t>(terms > terms_before ? terms - terms_before : 0),
      diff_writer.take(), wire_of(current), now);
  last_announced_ = current;
}

index::DocumentId Peer::publish(std::string xml, TimePoint now) {
  const std::size_t terms_before = store_.num_terms();
  const index::DocumentId doc = store_.publish(std::move(xml));
  announce(terms_before, now);
  return doc;
}

bool Peer::unpublish(index::DocumentId doc, TimePoint now) {
  if (!store_.unpublish(doc)) return false;
  announce(store_.num_terms(), now);
  return true;
}

bool Peer::republish(index::DocumentId doc, std::string xml, TimePoint now) {
  const std::size_t terms_before = store_.num_terms();
  if (!store_.republish(doc, std::move(xml))) return false;
  announce(terms_before, now);
  return true;
}

std::vector<std::uint8_t> Peer::filter_wire() const { return wire_of(store_.bloom_filter()); }

std::shared_ptr<const bloom::BloomFilter> Peer::filter_of(gossip::PeerId peer) const {
  if (peer == id_) {
    // Cache versions are non-zero; the store's version starts at 0.
    const std::uint64_t version = store_.filter_version() + 1;
    if (auto cached = cache_.version_of(id_); !cached.has_value() || *cached != version) {
      cache_.update_peer(id_, std::make_shared<bloom::BloomFilter>(store_.bloom_filter()),
                         version);
    }
    return cache_.filter_of(id_);
  }
  const gossip::PeerRecord* record = protocol_.directory().find(peer);
  if (record == nullptr || record->filter_wire.empty()) return nullptr;
  if (auto cached = cache_.version_of(peer);
      !cached.has_value() || *cached != record->version) {
    // Hand the cache the record's compressed wire verbatim; it stays at rest
    // until the resident_filter call below decodes it (and the decoded
    // working set is LRU-bounded when the config asks for it).
    cache_.update_peer_wire(peer, record->filter_wire, record->version);
  }
  return cache_.resident_filter(peer);
}

void Peer::on_rumor_applied(const gossip::RumorPayload& payload) {
  if (payload.origin == id_) return;
  if (!payload.filter.has_value() || payload.kind == gossip::EventKind::kRejoin) {
    // Version bump with unchanged content: keep the filter and entries warm.
    cache_.touch_peer(payload.origin, payload.version);
    return;
  }
  const gossip::FilterUpdate& fu = *payload.filter;
  if (fu.base_version != 0 && !fu.bits.empty()) {
    // Wire-backed peers merge the diff in the Golomb gap domain — the
    // at-rest bytes absorb it and, if decoded-resident, the cached terms the
    // diff touches are fixed surgically.
    if (cache_.apply_peer_diff_wire(payload.origin, fu.bits, fu.base_version,
                                    payload.version)) {
      return;
    }
    try {
      ByteReader reader(fu.bits);
      const BitVector diff = bloom::decode_diff(reader);
      if (cache_.apply_peer_diff(payload.origin, diff, fu.base_version, payload.version)) {
        return;  // surgical: untouched cached terms stayed warm
      }
    } catch (const std::exception&) {
      // Corrupt diff: fall through and drop the stale filter.
    }
  }
  // Full update, or a diff whose base we do not hold: drop the stale filter;
  // the next filter_of re-decodes the record's full wire and re-warms.
  cache_.remove_peer(payload.origin);
}

void Peer::on_peer_expired(gossip::PeerId peer) { cache_.remove_peer(peer); }

std::vector<gossip::PeerId> Peer::candidates(const std::vector<std::string>& terms) const {
  std::vector<gossip::PeerId> out;
  if (terms.empty()) return out;
  // Hash once, not once per (peer, term).
  std::vector<HashPair> hashes;
  hashes.reserve(terms.size());
  for (const std::string& t : terms) hashes.push_back(hash_pair(t));
  protocol_.directory().for_each([&](const gossip::PeerRecord& record) {
    if (record.id == id_) return;
    const auto filter = filter_of(record.id);
    if (filter == nullptr) return;
    for (const HashPair& hp : hashes) {
      if (!filter->contains(hp)) return;
    }
    out.push_back(record.id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

Peer::RankedPlan Peer::plan_ranked(std::size_t k) const {
  RankedPlan plan;
  // Filters come from the candidate cache's store, so tfipf_search's
  // hot-path lookup resolves them through warm term entries instead of
  // probing each one.
  protocol_.directory().for_each([&](const gossip::PeerRecord& record) {
    if (record.id == id_) return;
    auto f = filter_of(record.id);
    if (f != nullptr && record.online) {
      plan.view.push_back(search::PeerFilter{record.id, f.get(), record.suspicion});
      plan.pins.push_back(std::move(f));
    }
  });
  auto own = filter_of(id_);
  plan.view.push_back(search::PeerFilter{id_, own.get()});
  plan.pins.push_back(std::move(own));

  search::DistributedSearchOptions& opts = plan.options;
  opts.k = k;
  opts.group_size = config_.search_group_size;
  opts.stopping = config_.stopping;
  opts.retry = config_.search_retry;
  opts.deadline = config_.search_deadline;
  opts.hedge_threshold = config_.search_hedge_threshold;
  opts.seed = static_cast<std::uint64_t>(id_) << 32 | protocol_.directory().size();
  opts.cache = &cache_;
  return plan;
}

void Peer::record_contact(gossip::PeerId peer, bool ok, TimePoint now) {
  if (peer == id_) return;
  if (ok) {
    protocol_.directory().record_query_success(peer);
  } else {
    protocol_.directory().record_query_failure(peer, now);
  }
}

void Peer::record_outcomes(const std::vector<search::PeerOutcome>& outcomes, TimePoint now) {
  for (const search::PeerOutcome& outcome : outcomes) {
    record_contact(outcome.peer, outcome.status == search::ContactStatus::kOk, now);
  }
}

std::vector<search::ScoredDoc> Peer::serve_ranked(const search::PeerQuery& query) const {
  // Rank against the published epoch snapshot — byte-identical to scoring
  // a sequential index, and safe against concurrent publishes on this store.
  auto docs = search::top_k(*store_.snapshot(), query.weights, query.k);
  search::cut_to_query(docs, query);
  return docs;
}

}  // namespace planetp::core
