/// Cross-runtime conformance: one seeded publish script played into the
/// in-process core::Community and into a loopback net::LiveCluster must give
/// the same user-visible answers — identical ranked top-k (document ids,
/// bit-identical scores, titles), identical exhaustive hit lists and
/// identical directory views (each member's key_count and filter wire bytes).
/// Community ids are 0..n-1, LiveCluster ids 1..n: live id = community id + 1.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/community.hpp"
#include "net/cluster.hpp"
#include "util/rng.hpp"

namespace planetp {
namespace {

constexpr std::size_t kPeers = 8;
constexpr std::size_t kDocs = 200;
constexpr std::size_t kPostStartPublisher = 3;

/// Runtime-neutral form of one hit: community peer id, local id, score bits.
struct Hit {
  std::uint32_t peer = 0;
  std::uint32_t local = 0;
  std::uint64_t score_bits = 0;
  std::string title;
  bool operator==(const Hit&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Hit& h) {
  return os << "{" << h.peer << ":" << h.local << " " << std::bit_cast<double>(h.score_bits)
            << " '" << h.title << "'}";
}

std::vector<Hit> from_core(const std::vector<core::SearchHit>& hits) {
  std::vector<Hit> out;
  for (const auto& h : hits) {
    out.push_back(Hit{h.doc.peer, h.doc.local, std::bit_cast<std::uint64_t>(h.score), h.title});
  }
  return out;
}

std::vector<Hit> from_live(const std::vector<net::LiveHit>& hits) {
  std::vector<Hit> out;
  for (const auto& h : hits) {
    out.push_back(Hit{h.peer - 1, h.local, std::bit_cast<std::uint64_t>(h.score), h.title});
  }
  return out;
}

const std::vector<std::string>& vocabulary() {
  static const std::vector<std::string> words = [] {
    const char* syllables[] = {"ka", "lo", "mi", "ru", "te", "zo", "pa"};
    std::vector<std::string> w;
    for (const char* a : syllables) {
      for (const char* b : syllables) w.push_back(std::string(a) + b + "n");
    }
    return w;
  }();
  return words;
}

/// The seeded script: (owner, title, body) per document. Every peer owns at
/// least one document so both runtimes rank over the same peer population.
struct ScriptDoc {
  std::size_t owner;
  std::string title;
  std::string body;
};

std::vector<ScriptDoc> make_script() {
  Rng rng(20030622);
  const auto& vocab = vocabulary();
  std::vector<ScriptDoc> docs;
  for (std::size_t i = 0; i < kDocs; ++i) {
    ScriptDoc d;
    d.owner = i < kPeers ? i : static_cast<std::size_t>(rng.below(kPeers));
    d.title = "doc " + std::to_string(i);
    const std::size_t len = 6 + static_cast<std::size_t>(rng.below(20));
    for (std::size_t w = 0; w < len; ++w) {
      // min of two draws skews towards low indices: a few common terms and
      // a long tail of rare ones.
      const auto idx = std::min(rng.below(vocab.size()), rng.below(vocab.size()));
      d.body += vocab[idx] + " ";
    }
    docs.push_back(std::move(d));
  }
  return docs;
}

const std::vector<std::string> kQueries = {
    "kakan", "kakan kalon", "lolon mimin", "zozon", "papan teten rurun",
    "kalon zopan", "quasar", "quasar kakan", "unknownterm", "the",
};
const std::vector<std::size_t> kBudgets = {1, 5, 20, 500};

class Conformance : public ::testing::Test {
 protected:
  Conformance()
      : community_(core_config(), core::SyncMode::kInstant),
        cluster_(kPeers, live_config()) {}

  static core::NodeConfig core_config() {
    core::NodeConfig cfg;
    cfg.bloom.bits = 65536;
    return cfg;
  }

  static net::LiveNodeConfig live_config() {
    net::LiveNodeConfig cfg;
    cfg.bloom.bits = 65536;
    cfg.gossip.base_interval = 100 * kMillisecond;
    cfg.gossip.max_interval = 100 * kMillisecond;
    return cfg;
  }

  void SetUp() override {
    for (std::size_t p = 0; p < kPeers; ++p) community_.create_node();
    for (const ScriptDoc& d : make_script()) {
      const auto core_id = community_.node(static_cast<core::PeerId>(d.owner))
                               .publish_text(d.title, d.body);
      const auto live_id = cluster_.node(d.owner).publish_text(d.title, d.body);
      ASSERT_EQ(core_id.peer + 1, live_id.peer);
      ASSERT_EQ(core_id.local, live_id.local);
    }
    cluster_.start();
  }

  void TearDown() override { cluster_.stop(); }

  void expect_same_directories() {
    for (std::size_t v = 0; v < kPeers; ++v) {
      for (std::size_t m = 0; m < kPeers; ++m) {
        const gossip::PeerRecord* core_rec =
            community_.node(static_cast<core::PeerId>(v)).protocol().directory().find(
                static_cast<gossip::PeerId>(m));
        const auto live_rec =
            cluster_.node(v).directory_record(static_cast<gossip::PeerId>(m + 1));
        ASSERT_NE(core_rec, nullptr) << "viewer " << v << " member " << m;
        ASSERT_TRUE(live_rec.has_value()) << "viewer " << v << " member " << m;
        EXPECT_EQ(core_rec->key_count, live_rec->key_count) << "viewer " << v << " member " << m;
        EXPECT_EQ(core_rec->filter_wire, live_rec->filter_wire)
            << "viewer " << v << " member " << m;
      }
    }
  }

  void expect_same_answers() {
    for (std::size_t s = 0; s < kPeers; ++s) {
      core::Node& core_node = community_.node(static_cast<core::PeerId>(s));
      net::LiveNode& live_node = cluster_.node(s);
      for (const std::string& q : kQueries) {
        for (const std::size_t k : kBudgets) {
          EXPECT_EQ(from_core(core_node.ranked_search(q, k)),
                    from_live(live_node.ranked_search(q, k)))
              << "searcher " << s << " query '" << q << "' k=" << k;
        }
        EXPECT_EQ(from_core(core_node.exhaustive_search(q).hits),
                  from_live(live_node.exhaustive_search(q)))
            << "searcher " << s << " query '" << q << "'";
      }
    }
  }

  core::Community community_;
  net::LiveCluster cluster_;
};

TEST_F(Conformance, RankedExhaustiveAndDirectoryMatchAcrossRuntimes) {
  expect_same_directories();
  expect_same_answers();

  // One publish after start: the live community learns it through a gossiped
  // filter diff (applied to warm candidate caches), the in-process one
  // instantly. Both must again agree everywhere.
  const std::string title = "late arrival";
  const std::string body = "quasar kakan lolon quasar";
  community_.node(static_cast<core::PeerId>(kPostStartPublisher)).publish_text(title, body);
  net::LiveNode& publisher = cluster_.node(kPostStartPublisher);
  publisher.publish_text(title, body);
  const auto live_id = static_cast<gossip::PeerId>(kPostStartPublisher + 1);
  const auto self = publisher.directory_record(live_id);
  ASSERT_TRUE(self.has_value());
  ASSERT_TRUE(cluster_.wait_for_version_all(live_id, self->version, 20 * kSecond));

  expect_same_directories();
  expect_same_answers();
  const auto late = from_live(cluster_.node(0).ranked_search("quasar", 5));
  ASSERT_FALSE(late.empty());
  EXPECT_EQ(late.front().title, title);
}

}  // namespace
}  // namespace planetp
