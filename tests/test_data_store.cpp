#include "index/data_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace planetp::index {
namespace {

/// Synthetic corpus with heavy vocabulary overlap across documents, so the
/// dictionary intern order is sensitive to commit order.
std::vector<std::string> batch_corpus(std::size_t n) {
  std::vector<std::string> xml;
  xml.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string body = "gossip replication epidemic ";
    body += "topic" + std::to_string(i % 7) + " ";
    body += "entity" + std::to_string(i % 13) + " ";
    body += "unique" + std::to_string(i);
    xml.push_back(wrap_text_as_xml("doc" + std::to_string(i), body));
  }
  return xml;
}

/// Live postings of \p term in \p store's current snapshot as (doc, freq),
/// ascending by document.
std::vector<std::pair<DocumentId, std::uint32_t>> live_postings(const DataStore& store,
                                                                std::string_view term) {
  const auto snap = store.snapshot();
  std::vector<std::pair<DocumentId, std::uint32_t>> out;
  snap->for_each_posting(term, [&](std::uint32_t slot, std::uint32_t freq) {
    out.emplace_back(snap->doc_at_slot(slot), freq);
  });
  std::sort(out.begin(), out.end());
  return out;
}

bool holds_term(const DataStore& store, std::string_view term) {
  return !live_postings(store, term).empty();
}

/// Assert two stores are identical down to the store-local term ids: same
/// dictionary intern order, same live postings per term, same filter,
/// versions and epoch count.
void expect_identical_stores(const DataStore& a, const DataStore& b) {
  ASSERT_EQ(a.documents(), b.documents());
  EXPECT_EQ(a.next_local_id(), b.next_local_id());
  EXPECT_EQ(a.filter_version(), b.filter_version());
  EXPECT_EQ(a.bloom_filter(), b.bloom_filter());
  EXPECT_EQ(a.num_terms(), b.num_terms());
  EXPECT_EQ(a.snapshot()->epoch(), b.snapshot()->epoch());

  const TermDictionary& da = a.dictionary();
  const TermDictionary& db = b.dictionary();
  ASSERT_EQ(da.size(), db.size());
  for (TermId id = 0; id < da.size(); ++id) {
    EXPECT_EQ(da.term(id), db.term(id)) << "id " << id;
    EXPECT_EQ(live_postings(a, da.term(id)), live_postings(b, db.term(id))) << da.term(id);
    EXPECT_EQ(a.snapshot()->collection_frequency(da.term(id)),
              b.snapshot()->collection_frequency(db.term(id)))
        << da.term(id);
  }
  for (const DocumentId& id : a.documents()) {
    ASSERT_NE(b.document(id), nullptr);
    EXPECT_EQ(a.document(id)->title, b.document(id)->title);
  }
}

TEST(DataStore, PublishIndexesText) {
  DataStore store(1);
  const DocumentId id = store.publish_text("Doc One", "gossip protocols spread rumors");
  EXPECT_EQ(id.peer, 1u);
  EXPECT_EQ(store.num_documents(), 1u);

  const Document* doc = store.document(id);
  ASSERT_NE(doc, nullptr);
  EXPECT_EQ(doc->title, "Doc One");

  // Terms are analyzed (stemmed): "protocols" -> "protocol".
  EXPECT_TRUE(holds_term(store, "gossip"));
  EXPECT_TRUE(holds_term(store, "protocol"));
  EXPECT_FALSE(holds_term(store, "the"));
}

TEST(DataStore, BloomFilterCoversTerms) {
  DataStore store(1);
  store.publish_text("t", "epidemic algorithms for replicated databases");
  const auto filter = store.bloom_filter();
  EXPECT_TRUE(filter.contains("epidem"));  // stem of "epidemic"
  EXPECT_TRUE(filter.contains("algorithm"));
  EXPECT_FALSE(filter.contains("unrelated_term_xyz"));
}

TEST(DataStore, SearchAllTermsIsConjunctive) {
  DataStore store(1);
  const auto d1 = store.publish_text("a", "distributed gossip search");
  const auto d2 = store.publish_text("b", "distributed hash tables");
  store.publish_text("c", "centralized search engines");

  const auto both = store.search_all_terms("distributed search");
  ASSERT_EQ(both.size(), 1u);
  EXPECT_EQ(both[0], d1);

  const auto one = store.search_all_terms("distributed");
  EXPECT_EQ(one.size(), 2u);
  EXPECT_NE(std::find(one.begin(), one.end(), d2), one.end());

  EXPECT_TRUE(store.search_all_terms("distributed nonexistent").empty());
  EXPECT_TRUE(store.search_all_terms("").empty());
}

TEST(DataStore, UnpublishRemovesEverywhere) {
  DataStore store(1);
  const auto id = store.publish_text("doomed", "unique zanzibar marker");
  EXPECT_TRUE(holds_term(store, "zanzibar"));
  EXPECT_TRUE(store.bloom_filter().contains("zanzibar"));

  EXPECT_TRUE(store.unpublish(id));
  EXPECT_FALSE(store.unpublish(id));
  EXPECT_EQ(store.document(id), nullptr);
  EXPECT_FALSE(holds_term(store, "zanzibar"));
  EXPECT_FALSE(store.bloom_filter().contains("zanzibar"));
}

TEST(DataStore, SharedTermsSurviveUnpublish) {
  DataStore store(1);
  const auto d1 = store.publish_text("a", "shared quokka term");
  store.publish_text("b", "shared quokka elsewhere");
  store.unpublish(d1);
  EXPECT_TRUE(store.bloom_filter().contains("quokka"));
  EXPECT_TRUE(holds_term(store, "quokka"));
}

TEST(DataStore, FilterVersionIncrements) {
  DataStore store(1);
  const auto v0 = store.filter_version();
  const auto id = store.publish_text("x", "content");
  EXPECT_GT(store.filter_version(), v0);
  const auto v1 = store.filter_version();
  store.unpublish(id);
  EXPECT_GT(store.filter_version(), v1);
}

TEST(DataStore, PublishRawXmlWithLinks) {
  DataStore store(2);
  const auto id = store.publish(
      R"(<document title="Linked"><link href="notes.txt" type="text">searchable note body</link></document>)");
  const Document* doc = store.document(id);
  ASSERT_NE(doc, nullptr);
  ASSERT_EQ(doc->links.size(), 1u);
  // Linked text content is indexed.
  EXPECT_FALSE(store.search_all_terms("searchable note").empty());
}

TEST(DataStore, MalformedXmlRejected) {
  DataStore store(1);
  EXPECT_THROW(store.publish("<broken"), std::runtime_error);
  EXPECT_EQ(store.num_documents(), 0u);
}

TEST(DataStore, LocalIdsIncrease) {
  DataStore store(9);
  const auto a = store.publish_text("a", "one");
  const auto b = store.publish_text("b", "two");
  EXPECT_EQ(a.peer, 9u);
  EXPECT_LT(a.local, b.local);
}

TEST(DataStore, DocumentsListing) {
  DataStore store(1);
  store.publish_text("a", "alpha");
  store.publish_text("b", "beta");
  EXPECT_EQ(store.documents().size(), 2u);
}


TEST(DataStore, RepublishReplacesContent) {
  DataStore store(1);
  const auto id = store.publish_text("v1", "original ocelot content");
  ASSERT_TRUE(store.republish(id, wrap_text_as_xml("v2", "updated lynx content")));

  EXPECT_TRUE(store.search_all_terms("original ocelot").empty());
  ASSERT_EQ(store.search_all_terms("updated lynx").size(), 1u);
  EXPECT_EQ(store.document(id)->title, "v2");
  EXPECT_FALSE(store.bloom_filter().contains("ocelot"));
  EXPECT_TRUE(store.bloom_filter().contains("lynx"));
  EXPECT_EQ(store.num_documents(), 1u);
}

TEST(DataStore, RepublishUnknownIdFails) {
  DataStore store(1);
  EXPECT_FALSE(store.republish(DocumentId{1, 99}, wrap_text_as_xml("x", "y")));
}

TEST(DataStore, RepublishMalformedXmlLeavesOldVersion) {
  DataStore store(1);
  const auto id = store.publish_text("keep", "surviving capybara content");
  EXPECT_THROW(store.republish(id, "<broken"), std::runtime_error);
  EXPECT_EQ(store.search_all_terms("surviving capybara").size(), 1u);
  EXPECT_EQ(store.document(id)->title, "keep");
}

TEST(DataStore, BatchPublishSequentialFallbackMatchesLoop) {
  // publish_batch with no pool must behave exactly like a publish() loop.
  const auto corpus = batch_corpus(24);
  DataStore loop(4);
  for (const std::string& xml : corpus) loop.publish(xml);
  DataStore batch(4);
  const auto ids = batch.publish_batch(corpus, nullptr);
  ASSERT_EQ(ids.size(), corpus.size());
  for (std::size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1].local, ids[i].local);
  expect_identical_stores(loop, batch);
}

TEST(DataStore, ParallelPublishMatchesSequential) {
  // The tentpole determinism guarantee: sharding parse+analyze across a pool
  // while committing in document order yields a store identical to the
  // sequential path — including the dictionary's intern order, the posting
  // slots and the filter version. Runs under TSan via scripts/check.sh.
  const auto corpus = batch_corpus(64);
  DataStore seq(4);
  seq.publish_batch(corpus, nullptr);

  ThreadPool pool(4);
  DataStore par(4);
  const auto ids = par.publish_batch(corpus, &pool);
  ASSERT_EQ(ids.size(), corpus.size());
  expect_identical_stores(seq, par);

  // A second batch through the same pool keeps extending both identically.
  const auto more = batch_corpus(16);
  seq.publish_batch(more, nullptr);
  par.publish_batch(more, &pool);
  expect_identical_stores(seq, par);
}

TEST(DataStore, ParallelPublishMalformedDocKeepsEarlierCommits) {
  // A malformed document aborts the batch exactly where a sequential loop
  // would: everything before it is committed, nothing after it is.
  auto corpus = batch_corpus(10);
  corpus[6] = "<broken";
  ThreadPool pool(3);
  DataStore store(4);
  EXPECT_THROW(store.publish_batch(corpus, &pool), std::runtime_error);
  EXPECT_EQ(store.num_documents(), 6u);

  DataStore sequential(4);
  EXPECT_THROW(sequential.publish_batch(corpus, nullptr), std::runtime_error);
  expect_identical_stores(sequential, store);
}

TEST(DataStore, ParallelPublishEmptyAndTinyBatches) {
  ThreadPool pool(2);
  DataStore store(4);
  EXPECT_TRUE(store.publish_batch({}, &pool).empty());
  const auto one = store.publish_batch({wrap_text_as_xml("solo", "lone wolverine")}, &pool);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(store.num_documents(), 1u);
  EXPECT_TRUE(holds_term(store, "wolverin"));
}

TEST(DataStore, NumTermsCountsLiveTerms) {
  DataStore store(1);
  EXPECT_EQ(store.num_terms(), 0u);
  const auto a = store.publish_text("a", "quokka wombat");
  EXPECT_EQ(store.num_terms(), 2u);
  const auto b = store.publish_text("b", "quokka numbat");
  EXPECT_EQ(store.num_terms(), 3u);
  store.unpublish(a);  // "wombat" loses its only document
  EXPECT_EQ(store.num_terms(), 2u);
  store.republish(b, wrap_text_as_xml("b", "bilby"));
  EXPECT_EQ(store.num_terms(), 1u);
  store.unpublish(b);
  EXPECT_EQ(store.num_terms(), 0u);
  // The dictionary keeps every term ever interned; num_terms() does not.
  EXPECT_EQ(store.dictionary().size(), 4u);
}

TEST(DataStore, ParallelPublishStopsAtExhaustedIdSpace) {
  // A batch that runs past the last assignable id stops where a sequential
  // loop does: the ids that fit are committed, the next publish throws.
  ThreadPool pool(2);
  const auto corpus = batch_corpus(4);
  DataStore store(4);
  store.publish_as(DataStore::kNoLocalId - 3, corpus[0]);
  EXPECT_THROW(store.publish_batch(corpus, &pool), std::invalid_argument);
  EXPECT_EQ(store.num_documents(), 3u);
  EXPECT_EQ(store.next_local_id(), DataStore::kNoLocalId);

  DataStore sequential(4);
  sequential.publish_as(DataStore::kNoLocalId - 3, corpus[0]);
  EXPECT_THROW(sequential.publish_batch(corpus, nullptr), std::invalid_argument);
  expect_identical_stores(sequential, store);
}

}  // namespace
}  // namespace planetp::index
