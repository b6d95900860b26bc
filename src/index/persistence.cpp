#include "index/persistence.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "util/byte_buffer.hpp"
#include "util/varint.hpp"

namespace planetp::index {

namespace {
constexpr char kMagic[4] = {'P', 'P', 'D', 'S'};
constexpr char kIndexMagic[4] = {'P', 'P', 'C', 'I'};

[[noreturn]] void bad_index(const char* what) {
  throw std::runtime_error(std::string("compressed index snapshot: ") + what);
}
}

std::vector<std::uint8_t> serialize_data_store(const DataStore& store) {
  ByteWriter w;
  w.raw(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(kMagic), 4));
  w.u32(kDataStoreFormatVersion);
  w.u32(store.peer_id());
  w.u32(store.next_local_id());

  // Collect the records first so the count written is the count of
  // records that follow.
  std::vector<const Document*> docs;
  for (const DocumentId& id : store.documents()) {
    if (const Document* doc = store.document(id)) docs.push_back(doc);
  }
  w.varint(docs.size());
  for (const Document* doc : docs) {
    w.u32(doc->id.local);
    w.str(doc->xml_source);
  }
  return w.take();
}

namespace {

DataStore deserialize_data_store_impl(std::span<const std::uint8_t> bytes,
                                      bloom::BloomParams bloom_params,
                                      text::AnalyzerOptions analyzer_opts) {
  ByteReader r(bytes);
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.u8());
  if (std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error("data store snapshot: bad magic");
  }
  const std::uint32_t version = r.u32();
  if (version != kDataStoreFormatVersion) {
    throw std::runtime_error("data store snapshot: unsupported version " +
                             std::to_string(version));
  }
  const std::uint32_t peer_id = r.u32();
  const std::uint32_t next_local = r.u32();

  DataStore store(peer_id, bloom_params, analyzer_opts);
  // A record is at least a u32 id and a one-byte length prefix.
  const std::size_t count = r.count(5);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t local = r.u32();
    store.publish_as(local, r.str());
  }
  if (!r.done()) throw std::runtime_error("data store snapshot: trailing bytes");
  // Restore the id counter even past gaps left by unpublished documents so
  // post-restore publishes never reuse a previously seen id.
  store.reserve_local_ids(next_local);
  return store;
}

}  // namespace

DataStore deserialize_data_store(std::span<const std::uint8_t> bytes,
                                 bloom::BloomParams bloom_params,
                                 text::AnalyzerOptions analyzer_opts) {
  // One exception type for every defect: truncation, oversized counts and
  // duplicated or reserved ids surface from lower layers under their own
  // types.
  try {
    return deserialize_data_store_impl(bytes, bloom_params, analyzer_opts);
  } catch (const std::out_of_range&) {
    throw std::runtime_error("data store snapshot: truncated");
  } catch (const std::overflow_error&) {
    throw std::runtime_error("data store snapshot: varint overflow");
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("data store snapshot: ") + e.what());
  }
}

std::vector<std::uint8_t> serialize_compressed_index(const CompressedIndex& ci) {
  ByteWriter w;
  w.raw(std::span<const std::uint8_t>(reinterpret_cast<const std::uint8_t*>(kIndexMagic), 4));
  w.u32(kCompressedIndexFormatVersion);

  const auto& docs = ci.documents();
  w.varint(docs.size());
  for (std::uint32_t d = 0; d < docs.size(); ++d) {
    w.u32(docs[d].peer);
    w.u32(docs[d].local);
    w.varint(ci.doc_length_at(d));
  }

  // Canonical term order: lexicographic. Equal logical content serializes
  // to equal bytes no matter how the in-memory hash tables iterate — the
  // deserializer leans on this to verify stored block metadata by
  // re-encoding what it decoded.
  std::vector<CompressedIndex::TermView> terms;
  terms.reserve(ci.num_terms());
  ci.for_each_term_entry([&terms](const CompressedIndex::TermView& v) { terms.push_back(v); });
  std::sort(terms.begin(), terms.end(),
            [](const CompressedIndex::TermView& a, const CompressedIndex::TermView& b) {
              return a.term < b.term;
            });

  w.varint(terms.size());
  for (const CompressedIndex::TermView& v : terms) {
    w.str(v.term);
    w.varint(v.doc_freq);
    w.varint(v.collection_freq);
    w.bytes(std::span<const std::uint8_t>(v.run, v.run_bytes));
    w.varint(v.num_blocks);
    for (std::uint32_t b = 0; b < v.num_blocks; ++b) {
      const CompressedIndex::SkipEntry& sk = v.skips[b];
      w.varint(sk.offset);
      w.varint(sk.last_dense);
      w.varint(sk.base_dense);
      w.f64(sk.max_contrib);
      w.varint(sk.max_freq);
    }
    w.f64(v.max_contrib);
    w.varint(v.max_freq);
  }
  return w.take();
}

namespace {

CompressedIndex deserialize_compressed_index_impl(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.u8());
  if (std::memcmp(magic, kIndexMagic, 4) != 0) bad_index("bad magic");
  const std::uint32_t version = r.u32();
  if (version != kCompressedIndexFormatVersion) bad_index("unsupported version");

  // Document table: each entry costs at least 9 bytes (two u32 + a varint),
  // so count() rejects hostile lengths before any reserve.
  const std::size_t ndocs = r.count(9);
  std::vector<DocumentId> docs;
  std::vector<std::uint32_t> lengths;
  docs.reserve(ndocs);
  lengths.reserve(ndocs);
  for (std::size_t i = 0; i < ndocs; ++i) {
    DocumentId id;
    id.peer = r.u32();
    id.local = r.u32();
    const std::uint64_t len = r.varint();
    if (len > std::numeric_limits<std::uint32_t>::max()) bad_index("document length out of range");
    if (!docs.empty() && !(docs.back() < id)) bad_index("document table not ascending");
    docs.push_back(id);
    lengths.push_back(static_cast<std::uint32_t>(len));
  }
  CompressedIndex::Builder builder(std::move(docs), std::move(lengths));

  // A minimal well-formed term record is 28 bytes (empty-term prefix, df,
  // cf, a 2-byte single-posting run, one 12-byte skip entry, the term
  // bounds); the count discipline again bounds the reserve.
  const std::size_t nterms = r.count(28);
  std::string prev_term;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> postings;
  for (std::size_t t = 0; t < nterms; ++t) {
    std::string term = r.str();
    if (t > 0 && term <= prev_term) bad_index("terms not sorted");
    const std::uint64_t df = r.varint();
    if (df == 0 || df > ndocs) bad_index("bad document frequency");
    const std::uint64_t cf = r.varint();
    const std::vector<std::uint8_t> run = r.bytes();
    if (run.size() < df * 2) bad_index("posting run too short");  // >= 2 bytes per posting

    // Full decode of the run — every dense id bounds-checked against the
    // document table and required strictly ascending — before anything is
    // handed to a PostingCursor.
    postings.clear();
    postings.reserve(static_cast<std::size_t>(df));
    std::size_t pos = 0;
    std::uint32_t dense = 0;
    std::uint64_t freq_sum = 0;
    for (std::uint64_t j = 0; j < df; ++j) {
      const std::uint64_t gap = get_varint(run.data(), run.size(), pos);
      const std::uint64_t freq = get_varint(run.data(), run.size(), pos);
      const std::uint64_t next = j == 0 ? gap : static_cast<std::uint64_t>(dense) + gap + 1;
      if (next >= ndocs) bad_index("dense id out of range");
      if (freq == 0 || freq > std::numeric_limits<std::uint32_t>::max()) {
        bad_index("bad term frequency");
      }
      dense = static_cast<std::uint32_t>(next);
      freq_sum += freq;
      postings.emplace_back(dense, static_cast<std::uint32_t>(freq));
    }
    if (pos != run.size()) bad_index("posting run has trailing bytes");
    if (freq_sum != cf) bad_index("collection frequency mismatch");

    const std::size_t nblocks = r.count(12);  // 4 varints + f64 per entry
    const std::size_t expect_blocks =
        (static_cast<std::size_t>(df) + CompressedIndex::kBlockPostings - 1) /
        CompressedIndex::kBlockPostings;
    if (nblocks != expect_blocks) bad_index("bad block count");
    for (std::size_t b = 0; b < nblocks; ++b) {
      r.varint();  // offset      — verified below by canonical re-encode
      r.varint();  // last_dense
      r.varint();  // base_dense
      r.f64();     // max_contrib
      r.varint();  // max_freq
    }
    r.f64();     // term max_contrib — verified below
    r.varint();  // term max_freq    — verified below

    builder.add_term(term, postings);
    prev_term = std::move(term);
  }
  if (!r.done()) bad_index("trailing bytes");

  // The rebuilt index recomputed all block metadata from the decoded
  // postings. Serialization is canonical, so the input is well-formed iff
  // re-encoding reproduces it bit for bit — this verifies every stored
  // skip offset, dense bound, and score bound without trusting any of them.
  CompressedIndex out = builder.take();
  const std::vector<std::uint8_t> reencoded = serialize_compressed_index(out);
  if (reencoded.size() != bytes.size() ||
      std::memcmp(reencoded.data(), bytes.data(), bytes.size()) != 0) {
    bad_index("block metadata mismatch");
  }
  return out;
}

}  // namespace

CompressedIndex deserialize_compressed_index(std::span<const std::uint8_t> bytes) {
  try {
    return deserialize_compressed_index_impl(bytes);
  } catch (const std::out_of_range&) {
    bad_index("truncated");
  } catch (const std::overflow_error&) {
    bad_index("varint overflow");
  }
}

bool save_data_store(const DataStore& store, const std::string& path) {
  const auto bytes = serialize_data_store(store);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

DataStore load_data_store(const std::string& path, bloom::BloomParams bloom_params,
                          text::AnalyzerOptions analyzer_opts) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("data store snapshot: cannot open " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return deserialize_data_store(bytes, bloom_params, analyzer_opts);
}

}  // namespace planetp::index
