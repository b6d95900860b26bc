#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/community.hpp"
#include "corpus/synthetic.hpp"
#include "net/live_node.hpp"

/// \file workload.hpp
/// Inputs and checks shared by the untraced and traced programs. Everything
/// here goes through the API a PlanetP application uses: corpus generation,
/// core::Community / core::Node (and a node's directory, to tell when a
/// publish is visible), net::LiveHit.

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;     ///< search | publish | live_search
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;    ///< measured window of the closed query loops
  bool tiny = false;        ///< seconds-long smoke sizes
  std::string trace_out;    ///< traced program: where spans go (empty = nowhere)
  std::string reference;    ///< committed per-query answers for the default seed
  std::string write_reference;  ///< regenerate that file instead of checking it
};

/// Parses --workload --seed --seconds [--tiny] [--trace-out f] [--reference f]
/// [--write-reference f]; throws std::invalid_argument on anything else.
Options parse_options(int argc, char** argv);

/// Sizes of one workload (tiny shrinks every count for the smoke tests).
struct Shape {
  std::size_t peers = 0;
  std::size_t preload_docs = 0;   ///< published and converged during set-up
  std::size_t stream_docs = 0;    ///< publish: arrivals in the measured stream
  std::size_t k = 10;
  std::size_t min_queries = 0;    ///< closed loops run at least this many
};
Shape shape_of(const Options& opts);

/// Virtual time between publish arrivals in the publish workload.
inline constexpr planetp::Duration kArrivalGap = 250 * planetp::kMillisecond;
/// Stride of the set-up convergence loop; also the resolution of set-up
/// visibility times (gossip.visible_* on search).
inline constexpr planetp::Duration kSetupStride = 1 * planetp::kSecond;
/// Topic queries drawn from the generator (CACM itself has 52): more of them
/// make a run's latency mix depend less on which queries its seed drew.
inline constexpr std::size_t kTopicQueries = 200;

/// Seed of the Weibull placement's peer sizes (PlacementOptions' default).
inline constexpr std::uint64_t kPlacementSeed = 99;

/// The CACM-shaped collection, its Weibull placement and the query mix.
struct Corpus {
  planetp::corpus::SynthCollection collection;
  std::vector<std::uint32_t> owner;   ///< owner[doc] = peer index
  std::vector<std::string> queries;   ///< the query mix, in loop order
  std::vector<std::uint32_t> query_topic_query;  ///< generator query behind each
};

/// Deterministic in \p seed: collection, placement and broad terms.
Corpus make_corpus(std::size_t docs, std::size_t peers, std::uint64_t seed);

std::string doc_title(std::uint32_t doc);
std::string doc_body(const planetp::corpus::SynthDoc& doc);

/// One ranked hit as compared bit for bit: owner, local id, score bits.
struct AnswerHit {
  std::uint32_t peer = 0;
  std::uint32_t local = 0;
  std::uint64_t score_bits = 0;
  bool operator==(const AnswerHit&) const = default;
};
using Answer = std::vector<AnswerHit>;

Answer answer_of(const std::vector<planetp::core::SearchHit>& hits);
/// LiveCluster ids are Community ids shifted by one.
Answer answer_of(const std::vector<planetp::net::LiveHit>& hits);

/// Reference answers: one line per query index, "<index> peer:local:bits ...".
std::unordered_map<std::size_t, Answer> read_reference(const std::string& path);
void write_reference(const std::string& path,
                     const std::unordered_map<std::size_t, Answer>& answers);

/// Which collection documents are published, under which DocumentId.
struct Published {
  /// By collection doc; peer == UINT32_MAX when unpublished.
  std::vector<planetp::core::DocumentId> doc_id;
  std::unordered_map<std::uint64_t, std::uint32_t> doc_of;  ///< (peer<<32|local) -> doc
  void add(std::uint32_t doc, planetp::core::DocumentId id);
  /// The collection doc published as (peer, local); -1 when none is.
  std::int64_t find(std::uint32_t peer, std::uint32_t local) const;
};

/// Structural checks any ranked answer must pass: at most k hits, scores
/// non-increasing, each hit a published document held by the peer the hit
/// names, carrying at least one query term, with its title and XML fetched.
bool plausible_answer(const Corpus& corpus, const Published& published,
                      std::size_t query, std::size_t k,
                      const std::vector<planetp::core::SearchHit>& hits);

/// Recall at k against the generator's judgments, counting only judged
/// documents that are published. Negative when none is.
double recall_of(const Corpus& corpus, const Published& published, std::size_t query,
                 const Answer& answer);

/// Tracks when each publish becomes visible: every online peer's directory
/// holds the publisher's record at or after the version the publish made.
class Visibility {
 public:
  /// Record a publish that left \p owner's own directory at \p version.
  void published(planetp::core::PeerId owner, std::uint64_t version, planetp::TimePoint at);
  /// Mark what became visible by community.now().
  void update(planetp::core::Community& community);
  std::size_t pending() const { return pending_count_; }
  /// Virtual seconds from publish to visible, in the order they became visible.
  const std::vector<double>& visible_s() const { return visible_s_; }

 private:
  struct Pending {
    std::uint64_t version = 0;
    planetp::TimePoint at = 0;
  };
  std::unordered_map<planetp::core::PeerId, std::vector<Pending>> by_owner_;
  std::size_t pending_count_ = 0;
  std::vector<double> visible_s_;
};

/// The owner's directory version right after its latest publish.
std::uint64_t self_version(planetp::core::Node& node);

/// An in-process community holding \p docs of the corpus, in that order, each
/// published with Node::publish_text on its owner. \p on_publish runs after
/// every publish with the call's wall time (ns); it is not timed itself.
struct World {
  std::unique_ptr<planetp::core::Community> community;
  Published published;
};
using PublishHook = std::function<void(std::uint32_t doc, planetp::core::Node& owner,
                                       planetp::core::DocumentId id, std::int64_t ns)>;
/// Publishes are recorded in \p vis when given.
World make_world(const Corpus& corpus, std::size_t peers, const std::vector<std::uint32_t>& docs,
                 planetp::core::SyncMode mode, std::uint64_t seed, Visibility* vis,
                 const PublishHook& on_publish);

/// Steps \p community by kSetupStride until every publish recorded in \p vis
/// is visible, then confirms with step_until_converged. Returns false when
/// the community never converges. \p step_ns accumulates the wall time spent
/// stepping.
bool converge(planetp::core::Community& community, Visibility& vis, std::int64_t& step_ns);

/// Set-up shared by the in-process workloads: publish \p docs on their
/// owners (make_world), then step until every publish is visible (converge).
struct Setup {
  World world;
  Visibility vis;
  std::vector<double> publish_ms;  ///< wall time of each Node::publish_text
  std::int64_t publish_ns = 0;
  std::int64_t step_ns = 0;
  double setup_s = 0.0;
  bool converged = false;
};
/// \p extra runs after each publish, untimed by publish_ms but inside setup_s.
Setup set_up(const Corpus& corpus, std::size_t peers, std::uint64_t seed,
             const std::vector<std::uint32_t>& docs, const PublishHook& extra = {});

/// The query-mix index a closed loop issues at step \p i, and its searcher:
/// each pass over the mix moves every query to the next peer, so one query
/// is asked from many peers.
inline std::size_t query_at(const Corpus& corpus, std::size_t i) {
  return i % corpus.queries.size();
}
inline std::size_t searcher_at(const Corpus& corpus, std::size_t i, std::size_t peers) {
  return (i + i / corpus.queries.size()) % peers;
}

}  // namespace perfbench
