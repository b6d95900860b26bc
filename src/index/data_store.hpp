#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bloom/counting_bloom.hpp"
#include "index/document.hpp"
#include "index/epoch_index.hpp"
#include "index/inverted_index.hpp"
#include "index/term_dictionary.hpp"
#include "text/analyzer.hpp"

/// \file data_store.hpp
/// The per-peer local data store of §2: published XML documents, the local
/// index over them, and the (counting) Bloom filter summarizing the index's
/// term set. The plain projection of that filter is what the peer gossips;
/// a monotonically increasing version number tracks changes so the
/// directory can tell stale summaries from fresh ones.
///
/// The index of record is the epoch pipeline (epoch_index.hpp): every
/// commit publishes an immutable EpochSnapshot, and ranking
/// (search::top_k), conjunctive search and document listing are all served
/// from it. Each posting is written once, into the commit's segment. Beside
/// the snapshot the store keeps only what it cannot supply: the interned
/// term dictionary, each document's exact (TermId, freq) list — for exact
/// tombstones and counting-filter removal — and per-term live-document
/// counts, which back num_terms() (the key count the peer gossips).
///
/// Publishing is the store's hot path: text streams through the analyzer's
/// allocation-free pipeline straight into the interned term dictionary, and
/// the counting Bloom filter is fed from the dictionary's pre-computed
/// hashes (each distinct term is hashed exactly once per store lifetime).
/// publish_batch can additionally shard the parse+analyze work across a
/// ThreadPool while committing in document order, so the resulting store is
/// identical to a sequential publish loop. See docs/INDEX.md.
///
/// Mutation is single-writer. Concurrent readers call snapshot() —
/// thread-safe, a bounded pointer copy — and rank against it while further
/// publishes and removals proceed. See docs/INDEX.md "Epochs & concurrent
/// readers".

namespace planetp {
class ThreadPool;
}

namespace planetp::index {

class DataStore {
 public:
  explicit DataStore(std::uint32_t peer_id, bloom::BloomParams bloom_params = {},
                     text::AnalyzerOptions analyzer_opts = {}, EpochConfig epoch_config = {});

  /// Publish an XML document; indexes its text and updates the Bloom filter.
  /// Returns the new document's id. Throws on malformed XML.
  DocumentId publish(std::string xml_source);

  /// Publish pre-extracted plain text under a title (convenience wrapper
  /// that builds the XML envelope).
  DocumentId publish_text(std::string_view title, std::string_view body);

  /// Publish under a caller-chosen local id (snapshot restore: documents
  /// must keep their community-visible ids). Throws std::invalid_argument
  /// if the id is taken or is kNoLocalId.
  DocumentId publish_as(std::uint32_t local_id, std::string xml_source);

  /// Reserved local id: never assigned, so next_local_id() can always be
  /// one past the largest id in use. A store whose next id reaches it has
  /// exhausted its id space, and publish() throws.
  static constexpr std::uint32_t kNoLocalId = 0xFFFF'FFFFu;

  /// Publish a batch of XML documents. With \p pool, parsing and analysis
  /// run in parallel and results are committed in document order, producing
  /// a store (index, dictionary, filter, versions) identical to publishing
  /// the batch sequentially. On a malformed document the exception
  /// propagates after all earlier documents in the batch were committed —
  /// the same state a sequential loop would leave behind.
  std::vector<DocumentId> publish_batch(std::vector<std::string> xml_sources,
                                        ThreadPool* pool = nullptr);

  /// The next local id publish() would assign (snapshot metadata).
  std::uint32_t next_local_id() const { return next_local_id_; }

  /// Ensure future publishes use ids >= \p next (snapshot restore: ids of
  /// documents unpublished before the snapshot must never be reused).
  void reserve_local_ids(std::uint32_t next) {
    if (next > next_local_id_) next_local_id_ = next;
  }

  /// Remove a published document. Returns false if unknown.
  bool unpublish(DocumentId id);

  /// Replace a published document's content in place (same id, new XML):
  /// reindexes and updates the filter. Returns false if the id is unknown.
  /// Throws on malformed XML, leaving the old version intact.
  bool republish(DocumentId id, std::string xml_source);

  /// The stored document, or nullptr.
  const Document* document(DocumentId id) const;

  /// Documents whose text contains *all* query terms (local exhaustive
  /// search; terms are analyzed with the same pipeline as documents),
  /// ascending. Served from the current snapshot.
  std::vector<DocumentId> search_all_terms(std::string_view query) const;

  /// Current Bloom filter (plain projection of the counting filter).
  bloom::BloomFilter bloom_filter() const { return counting_filter_.to_bloom_filter(); }

  /// Version incremented on every publish/unpublish that changes the term
  /// set summary.
  std::uint64_t filter_version() const { return filter_version_; }

  /// Distinct terms held by at least one stored document — the key count
  /// of the term set the Bloom filter summarizes.
  std::size_t num_terms() const { return num_terms_; }

  /// The store-local term dictionary (append-only; TermIds never leave the
  /// process, see term_dictionary.hpp).
  const TermDictionary& dictionary() const { return dict_; }

  /// The current published index epoch. Thread-safe against concurrent
  /// publishes/removals (the wait is bounded by a pointer copy); the
  /// snapshot is immutable and stays valid for as long as the caller holds
  /// it.
  std::shared_ptr<const EpochSnapshot> snapshot() const { return epochs_->snapshot(); }

  /// The epoch pipeline (stats, merge waits; writer-side configuration).
  EpochIndex& epochs() { return *epochs_; }
  const EpochIndex& epochs() const { return *epochs_; }

  /// Fold all pending segments/tombstones into a fresh read-optimized base
  /// epoch (writer-side, blocking). After compact() the published
  /// snapshot's base carries block-max skip metadata for every stored
  /// document, so ranked queries take the pruned top-k path.
  void compact() { epochs_->compact(); }

  const text::Analyzer& analyzer() const { return analyzer_; }
  std::uint32_t peer_id() const { return peer_id_; }
  std::size_t num_documents() const { return docs_.size(); }

  /// All stored documents (ids ascending).
  std::vector<DocumentId> documents() const;

 private:
  /// Analyzed term counts of one document, pre-aggregated off the store
  /// (used by the parallel batch path; terms are strings because dictionary
  /// interning must stay single-threaded). First-occurrence order, so
  /// committing interns terms in the same order a sequential publish would.
  struct PreparedDoc {
    Document doc;
    std::vector<std::pair<std::string, std::uint32_t>> term_counts;
  };

  /// A stored document and its exact postings (first-occurrence order).
  struct StoredDoc {
    Document doc;
    std::vector<std::pair<TermId, std::uint32_t>> terms;
  };

  PreparedDoc prepare(DocumentId id, std::string xml_source) const;
  /// Claim \p id for a new document: throws if it is taken or reserved.
  void claim_id(DocumentId id, const char* who);
  /// Analyze \p text into counts_, interning its terms.
  void count_terms(std::string_view text);
  /// Commit \p doc with the term counts in counts_: filter, per-term
  /// document counts, epoch segment, document map, version.
  void add_document(Document doc);

  std::uint32_t peer_id_;
  std::uint32_t next_local_id_ = 0;
  text::Analyzer analyzer_;
  TermDictionary dict_;
  std::vector<std::uint32_t> term_docs_;  ///< live documents per TermId
  std::size_t num_terms_ = 0;             ///< TermIds with term_docs_ > 0
  bloom::CountingBloomFilter counting_filter_;
  std::uint64_t filter_version_ = 0;
  std::unordered_map<DocumentId, StoredDoc, DocumentIdHash> docs_;
  /// Reusable analysis buffers (single publish is single-threaded; the
  /// parallel batch path uses per-task scratches instead).
  text::AnalyzerScratch scratch_;
  TermCounts counts_;
  /// Epoch pipeline (owns the background merge thread and the published
  /// snapshot). unique_ptr keeps DataStore movable.
  std::unique_ptr<EpochIndex> epochs_;
};

}  // namespace planetp::index
