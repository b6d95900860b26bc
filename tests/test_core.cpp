#include "core/community.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "bloom/wire.hpp"
#include "index/xml.hpp"
#include "util/byte_buffer.hpp"

namespace planetp::core {
namespace {

NodeConfig small_config() {
  NodeConfig cfg;
  cfg.bloom.bits = 65536;  // small filters keep tests fast
  return cfg;
}

TEST(Community, PublishIsSearchableFromOtherNodes) {
  Community community(small_config());
  Node& alice = community.create_node();
  Node& bob = community.create_node();

  alice.publish_text("Epidemic Algorithms", "epidemic algorithms for replicated databases");
  const auto result = bob.exhaustive_search("epidemic replicated");
  ASSERT_EQ(result.hits.size(), 1u);
  EXPECT_EQ(result.hits[0].title, "Epidemic Algorithms");
  EXPECT_EQ(result.hits[0].doc.peer, alice.id());
}

TEST(Community, ExhaustiveSearchIsConjunctive) {
  Community community(small_config());
  Node& a = community.create_node();
  Node& b = community.create_node();
  a.publish_text("one", "apples and oranges");
  a.publish_text("two", "apples and pears");
  const auto result = b.exhaustive_search("apples oranges");
  EXPECT_EQ(result.hits.size(), 1u);
}

TEST(Community, RankedSearchOrdersAcrossPeers) {
  Community community(small_config());
  Node& searcher = community.create_node();
  Node& heavy = community.create_node();
  Node& light = community.create_node();

  // heavy's doc mentions the query terms much more often.
  heavy.publish_text("focused", "gossip gossip gossip gossip protocol");
  light.publish_text("passing", "a gossip column about celebrities and long stories "
                                "with many other words diluting the term");

  const auto hits = searcher.ranked_search("gossip protocol", 5);
  ASSERT_GE(hits.size(), 2u);
  EXPECT_EQ(hits[0].title, "focused");
  EXPECT_GT(hits[0].score, hits[1].score);
}

TEST(Community, RankedSearchIncludesOwnDocuments) {
  Community community(small_config());
  Node& solo = community.create_node();
  solo.publish_text("mine", "quasar observations");
  const auto hits = solo.ranked_search("quasar", 5);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc.peer, solo.id());
  EXPECT_FALSE(hits[0].xml.empty());
}

TEST(Community, UnpublishRemovesFromSearch) {
  Community community(small_config());
  Node& a = community.create_node();
  Node& b = community.create_node();
  const auto id = a.publish_text("temp", "ephemeral walrus content");
  ASSERT_EQ(b.exhaustive_search("ephemeral walrus").hits.size(), 1u);
  a.unpublish(id);
  EXPECT_TRUE(b.exhaustive_search("ephemeral walrus").hits.empty());
}

TEST(Community, OfflinePeersReportedAsCandidates) {
  Community community(small_config());
  Node& a = community.create_node();
  Node& b = community.create_node();
  Node& c = community.create_node();
  (void)a;
  b.publish_text("hidden", "obscure yeti sightings");
  community.set_online(b.id(), false);

  const auto result = c.exhaustive_search("obscure yeti");
  EXPECT_TRUE(result.hits.empty());
  // §2 advantage (4): the searcher knows documents may exist on the
  // offline peer.
  ASSERT_EQ(result.offline_candidates.size(), 1u);
  EXPECT_EQ(result.offline_candidates[0], b.id());
}

TEST(Community, PersistentQueryFiresOnLaterPublish) {
  Community community(small_config());
  Node& watcher = community.create_node();
  Node& publisher = community.create_node();

  std::vector<std::string> seen;
  watcher.add_persistent_query("submarine cables",
                               [&](const SearchHit& hit) { seen.push_back(hit.title); });
  EXPECT_TRUE(seen.empty());

  publisher.publish_text("Cables", "submarine cables across the atlantic");
  ASSERT_GE(seen.size(), 1u);
  EXPECT_EQ(seen[0], "Cables");

  // No duplicate upcall for the same document.
  const auto count = seen.size();
  publisher.publish_text("Unrelated", "volcanic ash plumes");
  EXPECT_EQ(seen.size(), count);
}

TEST(Community, PersistentQuerySeesPreexistingDocuments) {
  Community community(small_config());
  Node& publisher = community.create_node();
  publisher.publish_text("Old Doc", "ancient scrolls digitized");
  Node& watcher = community.create_node();

  std::vector<std::string> seen;
  watcher.add_persistent_query("ancient scrolls",
                               [&](const SearchHit& hit) { seen.push_back(hit.title); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "Old Doc");
}

TEST(Community, RemovePersistentQueryStopsUpcalls) {
  Community community(small_config());
  Node& watcher = community.create_node();
  Node& publisher = community.create_node();
  int calls = 0;
  const auto handle =
      watcher.add_persistent_query("krakatoa", [&](const SearchHit&) { ++calls; });
  EXPECT_TRUE(watcher.remove_persistent_query(handle));
  EXPECT_FALSE(watcher.remove_persistent_query(handle));
  publisher.publish_text("Eruption", "krakatoa eruption report");
  EXPECT_EQ(calls, 0);
}

TEST(Community, BrokerSnippetsFoundBeforeGossipInGossipMode) {
  // In gossip-step mode a fresh publish is invisible until rumors spread —
  // except through the brokerage service, which is the paper's motivation
  // for it (§4, §6).
  Community community(small_config(), SyncMode::kGossipStep);
  Node& a = community.create_node();
  Node& b = community.create_node();
  community.step_until_converged(10 * kMinute);

  // The broker keys are the document's *most frequent* terms (top 10%), so
  // make the query term dominate the document.
  a.publish_text("Fresh", "zeppelin zeppelin zeppelin maintenance manual");
  // No gossip steps yet: b's directory does not know a's new filter...
  const auto result = b.exhaustive_search("zeppelin");
  // ...but the broker ring already serves the snippet.
  EXPECT_FALSE(result.broker_hits.empty());
}

TEST(Community, RepublishReplacesTheBrokerSnippet) {
  // A republished document's old snippet (old XML, old keys) must stop
  // answering broker lookups; the new content is brokered under its own keys.
  Community community(small_config());
  Node& a = community.create_node();
  Node& b = community.create_node();
  const DocumentId doc = a.publish_text("alpha", "alpha alpha");
  ASSERT_EQ(b.exhaustive_search("alpha").broker_hits.size(), 1u);

  const std::string beta = index::wrap_text_as_xml("beta", "beta beta");
  ASSERT_TRUE(a.republish(doc, beta));
  EXPECT_TRUE(b.exhaustive_search("alpha").broker_hits.empty());
  const auto hits = b.exhaustive_search("beta").broker_hits;
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].xml, beta);
}

TEST(Community, GossipModeConvergesAfterPublish) {
  Community community(small_config(), SyncMode::kGossipStep);
  Node& a = community.create_node();
  Node& b = community.create_node();
  Node& c = community.create_node();
  (void)c;
  ASSERT_TRUE(community.step_until_converged(30 * kMinute));

  a.publish_text("News", "migratory patterns of arctic terns");
  ASSERT_TRUE(community.step_until_converged(30 * kMinute));

  const auto result = b.exhaustive_search("arctic terns");
  ASSERT_EQ(result.hits.size(), 1u);
  EXPECT_EQ(result.hits[0].title, "News");
}

TEST(Community, GossipModeRankedSearchEndToEnd) {
  Community community(small_config(), SyncMode::kGossipStep);
  Node& searcher = community.create_node();
  Node& p1 = community.create_node();
  Node& p2 = community.create_node();
  community.step_until_converged(30 * kMinute);

  p1.publish_text("Deep", "neural networks neural networks training");
  p2.publish_text("Shallow", "a passing mention of networks");
  ASSERT_TRUE(community.step_until_converged(30 * kMinute));

  const auto hits = searcher.ranked_search("neural networks", 2);
  ASSERT_GE(hits.size(), 1u);
  EXPECT_EQ(hits[0].title, "Deep");
}

TEST(Community, RejoiningPeerAnnouncesItself) {
  Community community(small_config());
  Node& a = community.create_node();
  Node& b = community.create_node();
  b.publish_text("doc", "reappearing content marker");

  community.set_online(b.id(), false);
  auto result = a.exhaustive_search("reappearing marker");
  EXPECT_TRUE(result.hits.empty());

  community.set_online(b.id(), true);
  result = a.exhaustive_search("reappearing marker");
  EXPECT_EQ(result.hits.size(), 1u);
}

TEST(Community, FetchDocumentFromOwner) {
  Community community(small_config());
  Node& a = community.create_node();
  community.create_node();
  const auto id = a.publish_text("fetchable", "retrievable content");
  const index::Document* doc = community.fetch_document(id);
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->title, "fetchable");
}


TEST(Community, RendezvousSearchDeliversLateHits) {
  // §2 advantage (4): arrange to rendezvous with offline candidates.
  Community community(small_config());
  Node& searcher = community.create_node();
  Node& sleeper = community.create_node();
  sleeper.publish_text("Night Owl", "nocturnal aardvark habits");
  community.set_online(sleeper.id(), false);

  std::vector<std::string> late;
  auto [result, handle] = searcher.rendezvous_search(
      "nocturnal aardvark", [&](const SearchHit& hit) { late.push_back(hit.title); });
  EXPECT_TRUE(result.hits.empty());
  ASSERT_EQ(result.offline_candidates.size(), 1u);
  ASSERT_NE(handle, 0u);
  EXPECT_EQ(searcher.pending_rendezvous_peers(handle), 1u);
  EXPECT_TRUE(late.empty());

  // The sleeper reconnects: the queued query runs and the hit arrives.
  community.set_online(sleeper.id(), true);
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0], "Night Owl");
  EXPECT_EQ(searcher.pending_rendezvous_peers(handle), 0u);  // auto-completed
}

TEST(Community, RendezvousWithNoOfflineCandidatesCompletesImmediately) {
  Community community(small_config());
  Node& searcher = community.create_node();
  Node& other = community.create_node();
  other.publish_text("Here", "immediately available ocelot data");

  int late_calls = 0;
  auto [result, handle] =
      searcher.rendezvous_search("ocelot", [&](const SearchHit&) { ++late_calls; });
  EXPECT_EQ(result.hits.size(), 1u);
  EXPECT_EQ(handle, 0u);  // nothing pending
  EXPECT_EQ(late_calls, 0);
}

TEST(Community, CancelledRendezvousStaysQuiet) {
  Community community(small_config());
  Node& searcher = community.create_node();
  Node& sleeper = community.create_node();
  sleeper.publish_text("Quiet", "cancellable ibex content");
  community.set_online(sleeper.id(), false);

  int calls = 0;
  auto [result, handle] =
      searcher.rendezvous_search("cancellable ibex", [&](const SearchHit&) { ++calls; });
  ASSERT_NE(handle, 0u);
  EXPECT_TRUE(searcher.cancel_rendezvous(handle));
  EXPECT_FALSE(searcher.cancel_rendezvous(handle));
  community.set_online(sleeper.id(), true);
  EXPECT_EQ(calls, 0);
}

TEST(Community, RendezvousDeduplicatesAgainstImmediateHits) {
  Community community(small_config());
  Node& searcher = community.create_node();
  Node& online_peer = community.create_node();
  Node& sleeper = community.create_node();
  online_peer.publish_text("Now", "wombat burrow engineering");
  sleeper.publish_text("Later", "wombat burrow maintenance");
  community.set_online(sleeper.id(), false);

  std::vector<std::string> late;
  auto [result, handle] = searcher.rendezvous_search(
      "wombat burrow", [&](const SearchHit& hit) { late.push_back(hit.title); });
  EXPECT_EQ(result.hits.size(), 1u);  // the online peer's doc, right away
  ASSERT_NE(handle, 0u);

  community.set_online(sleeper.id(), true);
  ASSERT_EQ(late.size(), 1u);  // only the sleeper's doc arrives late
  EXPECT_EQ(late[0], "Later");
}

TEST(Community, AnnouncedFilterBytesMatchTheStoreFilter) {
  // Every filter change announces the diff against the last announced
  // filter and the full filter, both encoded from one materialization of
  // the store's filter. The bytes are pinned against an independent
  // encoding, and the gossiped key count against the distinct analyzed
  // terms of the live documents.
  Community community(small_config(), SyncMode::kGossipStep);
  Node& a = community.create_node();
  Node& b = community.create_node();
  ASSERT_TRUE(community.step_until_converged(30 * kMinute));

  // Diffs b applies, by a's record version. A version can also reach b as
  // a full record instead (a pull), so not every version shows up here.
  std::map<std::uint64_t, std::vector<std::uint8_t>> received_diffs;
  auto forward = b.protocol().hooks().on_apply;
  b.protocol().hooks().on_apply = [&received_diffs, &a, forward](const gossip::RumorPayload& p,
                                                                 TimePoint now) {
    if (p.origin == a.id() && p.filter.has_value() && p.filter->base_version != 0) {
      received_diffs[p.version] = p.filter->bits;
    }
    if (forward) forward(p, now);
  };

  const std::vector<std::string> bodies = {"arctic terns migrate south",
                                           "terns nest on arctic islands",
                                           "puffins share the islands"};
  std::map<index::DocumentId, std::string> live;
  std::map<std::uint64_t, std::vector<std::uint8_t>> expected_diffs;
  bloom::BloomFilter announced = a.store().bloom_filter();
  const auto check_announcement = [&] {
    const bloom::BloomFilter current = a.store().bloom_filter();
    const gossip::PeerRecord* self = a.protocol().directory().find(a.id());
    ASSERT_NE(self, nullptr);
    ByteWriter diff;
    bloom::encode_diff(diff, current.diff_from(announced));
    expected_diffs[self->version] = diff.take();
    ByteWriter full;
    bloom::encode_filter(full, current);
    EXPECT_EQ(self->filter_wire, full.take());
    std::set<std::string> terms;
    for (const auto& [doc, body] : live) {
      for (std::string& t : a.store().analyzer().analyze(body)) terms.insert(std::move(t));
    }
    EXPECT_EQ(self->key_count, terms.size());
    announced = current;
  };
  for (const std::string& body : bodies) {
    live[a.publish_text("t", body)] = body;
    check_announcement();
    ASSERT_TRUE(community.step_until_converged(30 * kMinute));
  }
  const index::DocumentId first = live.begin()->first;
  ASSERT_TRUE(a.unpublish(first));
  live.erase(first);
  check_announcement();
  ASSERT_TRUE(community.step_until_converged(30 * kMinute));

  EXPECT_FALSE(received_diffs.empty());
  for (const auto& [version, bits] : received_diffs) {
    ASSERT_TRUE(expected_diffs.contains(version)) << version;
    EXPECT_EQ(bits, expected_diffs.at(version)) << version;
  }
  // And b's converged copy of a's filter is the full wire of a's filter.
  const gossip::PeerRecord* seen = b.protocol().directory().find(a.id());
  ASSERT_NE(seen, nullptr);
  ByteWriter full;
  bloom::encode_filter(full, a.store().bloom_filter());
  EXPECT_EQ(seen->filter_wire, full.take());
}

}  // namespace
}  // namespace planetp::core
