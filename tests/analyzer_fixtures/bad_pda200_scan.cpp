// PDA200 fixture: per-record container growth escaping a scan loop.
#include <cstddef>
#include <span>
#include <vector>

struct Record {
  int label;
};

struct Source {
  template <class F>
  void scan(const F& fn) const;
};

struct Reader {
  bool next_block(std::vector<Record>& out);
};

// A scan value invoked directly, as io::RecordScan<T> is.
template <class T>
struct RecordScan {
  explicit RecordScan(const char* file);
  template <class F>
  void operator()(F&& fn) const;
};

// Growth into a container declared outside the scan callback.
std::vector<Record> materialize_scan(const Source& source) {
  std::vector<Record> kept;
  source.scan([&](const Record& r) {
    kept.push_back(r);  // expect-PDA200
  });
  return kept;
}

// A scan value bound to a variable named `scan` and then called: the form
// the dc driver uses for its partition and redistribution passes.
std::vector<Record> materialize_record_scan(const char* file) {
  std::vector<Record> kept;
  const RecordScan<Record> scan(file);
  scan([&](const Record& r) {
    kept.push_back(r);  // expect-PDA200
  });
  return kept;
}

// The block form io::RecordScan<T> calls: the callback takes a span and
// loops over it, so the per-record growth sits in that inner loop.
std::vector<Record> materialize_block_scan(const char* file) {
  std::vector<Record> kept;
  const RecordScan<Record> scan(file);
  scan([&](std::span<const Record> blk) {
    for (const auto& r : blk) {
      kept.push_back(r);  // expect-PDA200
    }
  });
  return kept;
}

// An annotated zone in the block form is sanctioned and inventoried.
std::vector<Record> annotated_block_sample(const char* file) {
  std::vector<Record> sample;
  const RecordScan<Record> scan(file);
  scan([&](std::span<const Record> blk) {
    for (const auto& r : blk) {
      // pdc: incore(fixture block-form sample: bounded by the sample rate)
      sample.push_back(r);
    }
  });
  return sample;
}

// Same discipline for explicit BlockReader loops.
std::vector<Record> materialize_blocks(Reader& reader) {
  std::vector<Record> all;
  std::vector<Record> buf;
  while (reader.next_block(buf)) {
    for (const auto& r : buf) {
      all.push_back(r);  // expect-PDA200
    }
  }
  return all;
}

// An incore annotation must carry a reason.
std::vector<Record> empty_reason(const Source& source) {
  std::vector<Record> v;
  source.scan([&](const Record& r) {
    // pdc: incore() -- reasonless annotation
    v.push_back(r);  // expect-PDA200 (the annotation above has no reason)
  });
  return v;
}

// A container that lives and dies inside the loop body is bounded.
int bounded_inside_is_clean(const Source& source) {
  int n = 0;
  source.scan([&](const Record& r) {
    std::vector<int> tmp;
    tmp.push_back(r.label);
    n += static_cast<int>(tmp.size());
  });
  return n;
}

// The sanctioned zones carry an annotation and are inventoried.
std::vector<Record> annotated_sample(const Source& source) {
  std::vector<Record> sample;
  source.scan([&](const Record& r) {
    // pdc: incore(fixture pre-drawn sample: bounded by the sample rate)
    sample.push_back(r);
  });
  return sample;
}

// Growth outside any scan loop is not this check's business.
void growth_outside_is_clean(std::vector<Record>& out, const Record& r) {
  out.push_back(r);
}
