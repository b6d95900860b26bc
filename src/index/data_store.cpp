#include "index/data_store.hpp"

#include <algorithm>
#include <future>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace planetp::index {

DataStore::DataStore(std::uint32_t peer_id, bloom::BloomParams bloom_params,
                     text::AnalyzerOptions analyzer_opts, EpochConfig epoch_config)
    : peer_id_(peer_id),
      analyzer_(analyzer_opts),
      counting_filter_(bloom_params),
      epochs_(std::make_unique<EpochIndex>(epoch_config)) {}

void DataStore::claim_id(DocumentId id, const char* who) {
  if (id.local == kNoLocalId) {
    throw std::invalid_argument(std::string(who) + ": local id space exhausted");
  }
  if (docs_.contains(id)) {
    throw std::invalid_argument(std::string(who) + ": local id already in use");
  }
}

void DataStore::count_terms(std::string_view text) {
  counts_.clear();
  analyzer_.for_each_term(text, scratch_,
                          [&](std::string_view term) { counts_.add(dict_.intern(term)); });
}

void DataStore::add_document(Document doc) {
  const DocumentId id = doc.id;
  if (id.local >= next_local_id_) next_local_id_ = id.local + 1;
  StoredDoc stored{std::move(doc), {}};
  stored.terms.reserve(counts_.terms().size());
  for (const TermId term : counts_.terms()) {
    stored.terms.emplace_back(term, counts_.count(term));
    // Feed the counting filter from the dictionary's pre-computed hashes:
    // one hash per distinct term per store lifetime.
    counting_filter_.insert(dict_.hash(term));
    if (term >= term_docs_.size()) term_docs_.resize(term + 1, 0);
    if (term_docs_[term]++ == 0) ++num_terms_;
  }
  epochs_->commit_publish(id, dict_, counts_);
  docs_[id] = std::move(stored);
  ++filter_version_;
}

DocumentId DataStore::publish(std::string xml_source) {
  return publish_as(next_local_id_, std::move(xml_source));
}

DocumentId DataStore::publish_as(std::uint32_t local_id, std::string xml_source) {
  const DocumentId id{peer_id_, local_id};
  claim_id(id, "DataStore::publish_as");
  // Parse before burning the id: a malformed document leaves the store (and
  // the id counter) untouched, whether published directly or via a batch.
  Document doc = make_document(id, std::move(xml_source));
  count_terms(doc.text);
  add_document(std::move(doc));
  return id;
}

DataStore::PreparedDoc DataStore::prepare(DocumentId id, std::string xml_source) const {
  PreparedDoc out;
  out.doc = make_document(id, std::move(xml_source));
  // Aggregate term counts in first-occurrence order so the commit interns
  // terms exactly as the streaming (sequential) path would. The scratch and
  // the position map are per-worker-thread (one task runs at a time on a
  // thread), so their buffers and the analyzer memo survive across tasks.
  static thread_local text::AnalyzerScratch scratch;
  static thread_local std::unordered_map<std::string, std::size_t, StringHash, std::equal_to<>>
      position;
  position.clear();
  analyzer_.for_each_term(out.doc.text, scratch, [&](std::string_view term) {
    auto it = position.find(term);
    if (it == position.end()) {
      position.emplace(std::string(term), out.term_counts.size());
      out.term_counts.emplace_back(std::string(term), 1);
    } else {
      ++out.term_counts[it->second].second;
    }
  });
  return out;
}

std::vector<DocumentId> DataStore::publish_batch(std::vector<std::string> xml_sources,
                                                 ThreadPool* pool) {
  std::vector<DocumentId> ids;
  ids.reserve(xml_sources.size());
  // A batch that would run past the id space goes sequentially, so it stops
  // with the same exception, at the same document, as a publish loop.
  if (pool == nullptr || xml_sources.size() < 2 ||
      xml_sources.size() > kNoLocalId - next_local_id_) {
    for (std::string& xml : xml_sources) {
      ids.push_back(publish(std::move(xml)));
    }
    return ids;
  }

  // Parse + analyze in parallel; commit strictly in document order below, so
  // the resulting dictionary/filter/epochs are identical to a sequential
  // publish loop regardless of worker count or completion order.
  const std::uint32_t base = next_local_id_;
  std::vector<std::future<PreparedDoc>> prepared;
  prepared.reserve(xml_sources.size());
  for (std::size_t i = 0; i < xml_sources.size(); ++i) {
    const DocumentId id{peer_id_, base + static_cast<std::uint32_t>(i)};
    prepared.push_back(pool->submit(
        [this, id, xml = std::move(xml_sources[i])]() mutable {
          return prepare(id, std::move(xml));
        }));
  }
  for (std::future<PreparedDoc>& fut : prepared) {
    // get() rethrows a malformed-XML error after all earlier documents were
    // committed — the same state a sequential loop leaves behind.
    PreparedDoc doc = fut.get();
    const DocumentId id = doc.doc.id;
    claim_id(id, "DataStore::publish_batch");
    counts_.clear();
    for (const auto& [term, freq] : doc.term_counts) counts_.add(dict_.intern(term), freq);
    add_document(std::move(doc.doc));
    ids.push_back(id);
  }
  return ids;
}

DocumentId DataStore::publish_text(std::string_view title, std::string_view body) {
  return publish(wrap_text_as_xml(title, body));
}

bool DataStore::unpublish(DocumentId id) {
  auto it = docs_.find(id);
  if (it == docs_.end()) return false;
  // The epoch tombstone carries the document's exact postings so
  // snapshot-wide collection statistics keep matching a store that never
  // indexed the document. The counting filter is fed from the same pass
  // (hashes pre-computed by the dictionary).
  std::uint32_t doc_length = 0;
  std::vector<std::pair<std::string, std::uint32_t>> term_freqs;
  term_freqs.reserve(it->second.terms.size());
  for (const auto& [term, freq] : it->second.terms) {
    counting_filter_.remove(dict_.hash(term));
    if (--term_docs_[term] == 0) --num_terms_;
    term_freqs.emplace_back(std::string(dict_.term(term)), freq);
    doc_length += freq;
  }
  docs_.erase(it);
  epochs_->commit_remove(id, doc_length, std::move(term_freqs));
  ++filter_version_;
  return true;
}

bool DataStore::republish(DocumentId id, std::string xml_source) {
  if (!docs_.contains(id)) return false;
  // Validate the new content before tearing the old version down.
  Document replacement = make_document(id, std::move(xml_source));

  unpublish(id);
  count_terms(replacement.text);
  add_document(std::move(replacement));
  return true;
}

const Document* DataStore::document(DocumentId id) const {
  auto it = docs_.find(id);
  return it == docs_.end() ? nullptr : &it->second.doc;
}

std::vector<DocumentId> DataStore::documents() const {
  std::vector<DocumentId> out;
  out.reserve(docs_.size());
  for (const auto& [id, stored] : docs_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<DocumentId> DataStore::search_all_terms(std::string_view query) const {
  auto terms = analyzer_.analyze(query);
  if (terms.empty()) return {};
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());

  // Each term's live documents, ascending; then intersect, rarest first.
  const auto snap = snapshot();
  std::vector<std::vector<DocumentId>> lists;
  lists.reserve(terms.size());
  for (const auto& term : terms) {
    std::vector<DocumentId>& docs = lists.emplace_back();
    snap->for_each_posting(term, [&](std::uint32_t slot, std::uint32_t) {
      docs.push_back(snap->doc_at_slot(slot));
    });
    if (docs.empty()) return {};
    std::sort(docs.begin(), docs.end());
  }
  std::sort(lists.begin(), lists.end(),
            [](const auto& a, const auto& b) { return a.size() < b.size(); });
  std::vector<DocumentId> result = std::move(lists.front());
  for (std::size_t i = 1; i < lists.size() && !result.empty(); ++i) {
    std::vector<DocumentId> merged;
    std::set_intersection(result.begin(), result.end(), lists[i].begin(), lists[i].end(),
                          std::back_inserter(merged));
    result = std::move(merged);
  }
  return result;
}

}  // namespace planetp::index
