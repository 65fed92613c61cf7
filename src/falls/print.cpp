#include "falls/print.h"

#include <charconv>

#include "falls/set_ops.h"

namespace pfm {

namespace {

/// The tuple notation, written to `out`: a sink with put(char) and
/// put(std::int64_t). Counting sinks and writing sinks share this grammar,
/// so a string is sized once, exactly, before it is written.
template <typename Sink>
void write(Sink& out, const FallsSet& set);

template <typename Sink>
void write(Sink& out, const Falls& f) {
  char sep = '(';
  for (const std::int64_t v : {f.l, f.r, f.s, f.n}) {
    out.put(sep);
    out.put(v);
    sep = ',';
  }
  if (!f.leaf()) {
    out.put(',');
    write(out, f.inner);
  }
  out.put(')');
}

template <typename Sink>
void write(Sink& out, const FallsSet& set) {
  out.put('{');
  for (std::size_t i = 0; i < set.size(); ++i) {
    if (i > 0) {
      out.put(',');
      out.put(' ');
    }
    write(out, set[i]);
  }
  out.put('}');
}

struct Count {
  std::size_t n = 0;
  void put(char) { ++n; }
  void put(std::int64_t v) {
    char digits[20];
    n += static_cast<std::size_t>(std::to_chars(digits, digits + 20, v).ptr - digits);
  }
};

struct Fill {
  char* p;
  char* end;
  void put(char c) { *p++ = c; }
  void put(std::int64_t v) { p = std::to_chars(p, end, v).ptr; }
};

/// `head`, then the tuple notation of x, in one string of exact length.
template <typename T>
std::string text(std::string_view head, const T& x) {
  Count count;
  write(count, x);
  std::string out(head.size() + count.n, '\0');
  Fill fill{out.data() + head.copy(out.data(), head.size()), out.data() + out.size()};
  write(fill, x);
  return out;
}

}  // namespace

std::string to_string(const Falls& f) { return text({}, f); }

std::string to_string(const FallsSet& set) { return text({}, set); }

std::string to_string(std::string_view head, const FallsSet& set) {
  return text(head, set);
}

std::string render_bytes(const FallsSet& set, std::int64_t extent) {
  if (extent < 0) extent = set_extent(set);
  std::string out;
  if (extent <= 64) {
    for (std::int64_t i = 0; i < extent; ++i) {
      out += static_cast<char>('0' + i % 10);
      if (i + 1 < extent) out += ' ';
    }
    out += '\n';
  }
  for (std::int64_t i = 0; i < extent; ++i) {
    out += set_contains(set, i) ? 'X' : '.';
    if (i + 1 < extent) out += ' ';
  }
  out += '\n';
  return out;
}

}  // namespace pfm
