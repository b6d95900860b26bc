/// Rank safety of the k + floor contact (docs/SEARCH.md "k and floor"): a
/// ranked search whose contacts ask each peer for at most k docs beating the
/// searcher's current k-th result must be bit-for-bit the search whose
/// contacts return every match — same top-k, same contact order, same eq. 4
/// verdicts, same retries, substitutions and hedges — while receiving fewer
/// documents.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/community.hpp"
#include "index/document.hpp"
#include "util/rng.hpp"

namespace planetp {
namespace {

using search::ContactStatus;
using search::DistributedSearchOptions;
using search::DistributedSearchResult;
using search::PeerQuery;
using search::PeerSearchFn;
using search::PeerSearchResult;
using search::ScoredDoc;

constexpr std::size_t kPeers = 10;
constexpr core::PeerId kBigPeer = kPeers - 1;
constexpr std::size_t kBigDocs = 1100;  // > the pruned driver's 1024-doc minimum
constexpr std::size_t kSmallDocs = 40;  // per other peer, on average
const std::vector<std::size_t> kBudgets = {1, 10, 100};

const std::vector<std::string>& vocabulary() {
  static const std::vector<std::string> words = [] {
    const char* syllables[] = {"ka", "lo", "mi", "ru", "te", "zo", "pa", "ne"};
    std::vector<std::string> w;
    for (const char* a : syllables) {
      for (const char* b : syllables) w.push_back(std::string(a) + b + "n");
    }
    return w;
  }();
  return words;
}

/// Only some documents of the peers from kMarkedPeers up (the big peer
/// among them) carry this term, so a query naming it contacts those peers
/// first, against id order. Their k-th result then ties with documents of
/// lower-id peers contacted later, which rank before it and must be served.
constexpr core::PeerId kMarkedPeers = 5;
const std::string kMarker = "quasar";

/// Queries over the skewed vocabulary: the first ones hit most documents on
/// most peers (broad), the rest are rarer conjunctions and a miss.
const std::vector<std::string> kBroadQueries = {"kakan", "kakan kalon", "kakan quasar",
                                                "kalon kamin quasar"};
const std::vector<std::string> kNarrowQueries = {"nenen", "zozon papan", "nekan teten rurun",
                                                 "unknownterm"};

/// A body over a skewed vocabulary. Half are short, so many documents share
/// a query term's frequency and a length — and hence a score; the rest
/// spread the scores out. Three in four carry the broad term "kakan",
/// enough postings for the pruned top-k to run.
std::string random_body(Rng& rng) {
  const auto& vocab = vocabulary();
  std::string body = rng.below(4) == 0 ? "" : rng.below(3) == 0 ? "kakan kakan " : "kakan ";
  const std::size_t len = static_cast<std::size_t>(
      rng.below(2) == 0 ? 3 + rng.below(3) : 4 + rng.below(12));
  for (std::size_t w = 0; w < len; ++w) {
    // min of two draws: a few common terms and a long tail of rare ones.
    body += vocab[std::min(rng.below(vocab.size()), rng.below(vocab.size()))] + " ";
  }
  return body;
}

/// A seeded community: peer kBigPeer holds kBigDocs documents behind a
/// compacted (pruning-eligible) base, the others a few dozen each. Scores
/// tie within and across peers (short bodies; every fifth document repeats
/// an earlier body); removals and republishes leave tombstones in live
/// snapshots.
std::unique_ptr<core::Community> make_community(std::size_t group_size) {
  core::NodeConfig cfg;
  cfg.bloom.bits = 65536;
  cfg.search_group_size = group_size;
  auto community = std::make_unique<core::Community>(cfg, core::SyncMode::kInstant);
  for (std::size_t p = 0; p < kPeers; ++p) community->create_node();

  Rng rng(20030622);
  std::vector<std::string> bodies;
  std::vector<index::DocumentId> published;
  const std::size_t total = kBigDocs + (kPeers - 1) * kSmallDocs;
  for (std::size_t i = 0; i < total; ++i) {
    const auto owner =
        static_cast<core::PeerId>(i < kBigDocs ? kBigPeer : rng.below(kPeers - 1));
    std::string body =
        (i % 5 == 4) ? bodies[rng.below(bodies.size())] : random_body(rng);
    if (owner >= kMarkedPeers && rng.below(4) == 0) body += kMarker;
    bodies.push_back(body);
    published.push_back(
        community->node(owner).publish_text("doc " + std::to_string(i), body));
  }
  community->node(kBigPeer).store().compact();

  // Churn after the compaction: the big peer's base now carries tombstones.
  for (std::size_t r = 0; r < 60; ++r) {
    const index::DocumentId doc = published[rng.below(published.size())];
    core::Node& owner = community->node(doc.peer);
    if (r % 2 == 0) {
      owner.unpublish(doc);
    } else {
      owner.republish(doc, index::wrap_text_as_xml("again " + std::to_string(r),
                                                   random_body(rng)));
    }
  }
  return community;
}

/// The searcher's view (every peer's filter, ours included) and options,
/// built from the node's configuration the way Node::ranked_search does.
struct Plan {
  std::vector<search::PeerFilter> view;
  std::vector<std::shared_ptr<const bloom::BloomFilter>> pins;
  DistributedSearchOptions options;
};

Plan plan_for(core::Node& node, std::size_t k) {
  Plan plan;
  for (core::PeerId p = 0; p < kPeers; ++p) {
    auto f = node.filter_of(p);
    if (f == nullptr) continue;
    plan.view.push_back(search::PeerFilter{p, f.get()});
    plan.pins.push_back(std::move(f));
  }
  plan.options.k = k;
  plan.options.group_size = node.config().search_group_size;
  plan.options.stopping = node.config().stopping;
  plan.options.cache = &node.candidate_cache();
  return plan;
}

/// The two contacts under comparison, over the same community.
struct Contacts {
  PeerSearchFn floored;  ///< forwards the PeerQuery: k + floor
  PeerSearchFn oracle;   ///< two-argument contact: every match
};

Contacts contacts_for(core::Community& community, core::Node& searcher) {
  Contacts c;
  c.floored = [&community, &searcher](std::uint32_t peer, const PeerQuery& query) {
    if (peer == searcher.id()) return PeerSearchResult(searcher.handle_ranked_query(query));
    return community.contact_ranked(searcher.id(), peer, query);
  };
  c.oracle = [&community, &searcher](std::uint32_t peer,
                                     const std::unordered_map<std::string, double>& weights) {
    if (peer == searcher.id()) return PeerSearchResult(searcher.handle_ranked_query(weights));
    return community.contact_ranked(searcher.id(), peer, weights);
  };
  return c;
}

/// Wraps \p inner to check every answer against the query it served: at
/// most k docs, each strictly before the floor. Counts floored contacts and
/// the big peer's contacts the pruned top-k would serve.
struct CheckedContact {
  core::Community* community = nullptr;
  std::size_t floored = 0;
  std::size_t pruned = 0;

  PeerSearchFn wrap(PeerSearchFn inner) {
    return [this, inner = std::move(inner)](std::uint32_t peer, const PeerQuery& query) {
      PeerSearchResult res = inner(peer, query);
      EXPECT_LE(res.docs.size(), query.k) << "peer " << peer;
      if (query.floor.has_value()) {
        ++floored;
        for (const ScoredDoc& d : res.docs) {
          EXPECT_TRUE(search::ranks_before(d, *query.floor)) << "peer " << peer;
        }
      }
      if (peer == kBigPeer && res.is_ok()) {
        search::PruneStats stats;
        (void)search::top_k(*community->node(kBigPeer).store().snapshot(), query.weights,
                            query.k, &stats);
        pruned += stats.pruned_queries;
      }
      return res;
    };
  }
};

std::vector<std::pair<index::DocumentId, std::uint64_t>> bits_of(
    const std::vector<ScoredDoc>& docs) {
  std::vector<std::pair<index::DocumentId, std::uint64_t>> out;
  for (const ScoredDoc& d : docs) out.emplace_back(d.doc, std::bit_cast<std::uint64_t>(d.score));
  return out;
}

void expect_same_search(const DistributedSearchResult& got, const DistributedSearchResult& want,
                        const std::string& where) {
  EXPECT_EQ(bits_of(got.docs), bits_of(want.docs)) << where;
  EXPECT_EQ(got.contacted, want.contacted) << where;
  EXPECT_EQ(got.candidate_peers, want.candidate_peers) << where;
  ASSERT_EQ(got.outcomes.size(), want.outcomes.size()) << where;
  for (std::size_t i = 0; i < got.outcomes.size(); ++i) {
    EXPECT_EQ(got.outcomes[i].peer, want.outcomes[i].peer) << where << " outcome " << i;
    EXPECT_EQ(got.outcomes[i].status, want.outcomes[i].status) << where << " outcome " << i;
    EXPECT_EQ(got.outcomes[i].attempts, want.outcomes[i].attempts) << where << " outcome " << i;
    EXPECT_EQ(got.outcomes[i].latency, want.outcomes[i].latency) << where << " outcome " << i;
    EXPECT_EQ(got.outcomes[i].hedged, want.outcomes[i].hedged) << where << " outcome " << i;
  }
  EXPECT_EQ(got.failed_peers, want.failed_peers) << where;
  EXPECT_EQ(got.substituted_peers, want.substituted_peers) << where;
  EXPECT_EQ(got.retries, want.retries) << where;
  EXPECT_EQ(got.hedged_contacts, want.hedged_contacts) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.coverage), std::bit_cast<std::uint64_t>(want.coverage))
      << where;
  EXPECT_EQ(got.deadline_exceeded, want.deadline_exceeded) << where;
  EXPECT_EQ(got.elapsed, want.elapsed) << where;
  EXPECT_LE(got.docs_received, want.docs_received) << where;
}

/// The grid for one search_group_size: every searcher below, every query,
/// every k. Node::ranked_search (the production k + floor path) must give
/// the oracle's top-k too.
void run_grid(std::size_t group_size) {
  auto community = make_community(group_size);
  CheckedContact checked{community.get()};
  for (const core::PeerId s : {core::PeerId{0}, core::PeerId{3}, core::PeerId{7}}) {
    core::Node& searcher = community->node(s);
    const Contacts contacts = contacts_for(*community, searcher);
    const PeerSearchFn floored = checked.wrap(contacts.floored);
    for (const std::size_t k : kBudgets) {
      for (const auto* queries : {&kBroadQueries, &kNarrowQueries}) {
        for (const std::string& q : *queries) {
          const std::string where =
              "searcher " + std::to_string(s) + " query '" + q + "' k=" + std::to_string(k);
          const auto terms = searcher.store().analyzer().analyze(q);
          const Plan plan = plan_for(searcher, k);
          const auto got = search::tfipf_search(terms, plan.view, floored, plan.options);
          const auto want = search::tfipf_search(terms, plan.view, contacts.oracle, plan.options);
          expect_same_search(got, want, where);
          if (queries == &kBroadQueries) {
            EXPECT_LT(got.docs_received, want.docs_received) << where;
          }

          std::vector<ScoredDoc> hits;
          for (const core::SearchHit& h : searcher.ranked_search(q, k)) {
            hits.push_back(ScoredDoc{h.doc, h.score});
          }
          EXPECT_EQ(bits_of(hits), bits_of(want.docs)) << where;
        }
      }
    }
  }
  EXPECT_GT(checked.floored, 0u);  // the floor was exercised ...
  EXPECT_GT(checked.pruned, 0u);   // ... and the pruned top-k served the big peer
}

TEST(DistributedSearch, KAndFloorMatchAllMatchesSequential) { run_grid(1); }

TEST(DistributedSearch, KAndFloorMatchAllMatchesGrouped) { run_grid(3); }

TEST(DistributedSearch, KAndFloorMatchAllMatchesRandomized) {
  // Synthetic peers with random filters (so contact order departs from id
  // order) and random ranked lists over a handful of score levels (so ties
  // are everywhere), served by cut_to_query or returned whole.
  const std::vector<std::string> terms = {"a", "b", "c"};
  bloom::BloomParams params{4096, 2};
  Rng rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t peers = 2 + static_cast<std::size_t>(rng.below(12));
    std::vector<bloom::BloomFilter> filters(peers, bloom::BloomFilter(params));
    std::vector<std::vector<ScoredDoc>> lists(peers);
    std::vector<search::PeerFilter> view;
    for (std::uint32_t p = 0; p < peers; ++p) {
      for (const std::string& t : terms) {
        if (rng.below(2) == 0) filters[p].insert(t);
      }
      const std::size_t n = static_cast<std::size_t>(rng.below(8));
      for (std::uint32_t d = 0; d < n; ++d) {
        lists[p].push_back(ScoredDoc{{p, d}, static_cast<double>(1 + rng.below(4)) / 4.0});
      }
      std::sort(lists[p].begin(), lists[p].end(), search::ranks_before);
      view.push_back(search::PeerFilter{p, &filters[p]});
    }
    DistributedSearchOptions opts;
    opts.k = 1 + static_cast<std::size_t>(rng.below(6));
    opts.group_size = rng.below(2) == 0 ? 1 : 3;
    const PeerSearchFn floored = [&](std::uint32_t peer, const PeerQuery& query) {
      std::vector<ScoredDoc> docs = lists[peer];
      search::cut_to_query(docs, query);
      return PeerSearchResult(std::move(docs));
    };
    const PeerSearchFn oracle = [&](std::uint32_t peer, const auto&) {
      return PeerSearchResult(lists[peer]);
    };
    expect_same_search(search::tfipf_search(terms, view, floored, opts),
                       search::tfipf_search(terms, view, oracle, opts),
                       "trial " + std::to_string(trial));
  }
}

TEST(DistributedSearch, KAndFloorMatchAllMatchesUnderTimeoutsAndHedges) {
  auto community = make_community(1);
  CheckedContact checked{community.get()};
  core::Node& searcher = community->node(5);
  const Contacts contacts = contacts_for(*community, searcher);

  // Deterministic faults by (peer, attempt), replayed identically for both
  // searches: peers 1 and 6 time out once then answer (a retry), peer 2
  // always times out and peer 8 is unreachable (substitutions), and peers
  // 0 and 3 answer slowly (hedges).
  std::map<std::uint32_t, std::uint32_t> attempts;
  const auto faulty = [&attempts](PeerSearchFn inner) -> PeerSearchFn {
    return [&attempts, inner = std::move(inner)](std::uint32_t peer, const PeerQuery& query) {
      const std::uint32_t attempt = ++attempts[peer];
      if ((peer == 1 || peer == 6) && attempt == 1) {
        return PeerSearchResult::failure(ContactStatus::kTimeout, 30 * kMillisecond);
      }
      if (peer == 2) return PeerSearchResult::failure(ContactStatus::kTimeout, 30 * kMillisecond);
      if (peer == 8) return PeerSearchResult::failure(ContactStatus::kUnreachable);
      PeerSearchResult res = inner(peer, query);
      res.latency = (peer == 0 || peer == 3) ? 40 * kMillisecond : kMillisecond;
      return res;
    };
  };
  const PeerSearchFn floored = faulty(checked.wrap(contacts.floored));
  const PeerSearchFn oracle = faulty(contacts.oracle);

  std::size_t retries = 0, substituted = 0, hedged = 0;
  for (const std::size_t k : kBudgets) {
    for (const auto* queries : {&kBroadQueries, &kNarrowQueries}) {
      for (const std::string& q : *queries) {
        const std::string where = "query '" + q + "' k=" + std::to_string(k);
        const auto terms = searcher.store().analyzer().analyze(q);
        Plan plan = plan_for(searcher, k);
        plan.options.retry.max_attempts = 2;
        plan.options.retry.base_backoff = kMillisecond;
        plan.options.hedge_threshold = 20 * kMillisecond;
        plan.options.seed = 0x5eed + k;
        attempts.clear();
        const auto got = search::tfipf_search(terms, plan.view, floored, plan.options);
        attempts.clear();
        const auto want = search::tfipf_search(terms, plan.view, oracle, plan.options);
        expect_same_search(got, want, where);
        if (queries == &kBroadQueries) {
          EXPECT_LT(got.docs_received, want.docs_received) << where;
        }
        retries += want.retries;
        substituted += want.substituted_peers;
        hedged += want.hedged_contacts;
      }
    }
  }
  // The fault script fired every mechanism it is meant to exercise.
  EXPECT_GT(retries, 0u);
  EXPECT_GT(substituted, 0u);
  EXPECT_GT(hedged, 0u);
  EXPECT_GT(checked.floored, 0u);
}

}  // namespace
}  // namespace planetp
