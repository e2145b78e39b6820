#include "util/json.h"

#include <charconv>
#include <cmath>

#include "util/check.h"

namespace h3cdn::util {
namespace {

template <typename Int>
void append_integer(std::string& out, Int v) {
  char buf[24];  // the 20 digits of 2^64 - 1, or a sign and 19 digits
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

}  // namespace

void JsonWriter::pre_value() {
  if (!stack_.empty() && !expecting_value_) {
    H3CDN_EXPECTS(stack_.back() == Ctx::Array);  // bare value only valid in array
    if (has_items_.back()) out_ += ',';
    has_items_.back() = true;
  }
  expecting_value_ = false;
}

void JsonWriter::escape_into(std::string_view s) {
  out_ += '"';
  // Clean characters are appended in runs; only the ones JSON requires
  // escaped (quote, backslash, < 0x20) break a run. Bytes >= 0x80 (UTF-8)
  // and 0x7f pass through.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out_.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out_.append(escaped, sizeof escaped);
      }
    }
  }
  out_.append(s.data() + run, s.size() - run);
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  pre_value();
  out_ += '{';
  stack_.push_back(Ctx::Object);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  H3CDN_EXPECTS(!stack_.empty() && stack_.back() == Ctx::Object && !expecting_value_);
  out_ += '}';
  stack_.pop_back();
  has_items_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  pre_value();
  out_ += '[';
  stack_.push_back(Ctx::Array);
  has_items_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  H3CDN_EXPECTS(!stack_.empty() && stack_.back() == Ctx::Array && !expecting_value_);
  out_ += ']';
  stack_.pop_back();
  has_items_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  H3CDN_EXPECTS(!stack_.empty() && stack_.back() == Ctx::Object && !expecting_value_);
  if (has_items_.back()) out_ += ',';
  has_items_.back() = true;
  escape_into(k);
  out_ += ':';
  expecting_value_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  pre_value();
  escape_into(v);
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string_view{v}); }

JsonWriter& JsonWriter::value(double v) {
  pre_value();
  if (std::isfinite(v)) {
    // 15 significant digits: enough that additive invariants (e.g. a
    // waterfall entry's total equals the sum of its parsed phases) survive
    // the round-trip for any simulated-milliseconds magnitude; %.6g lost
    // sub-0.01 ms precision once values crossed 1000 and broke them.
    // [charconv] defines this call as printf's %.15g in the C locale, so the
    // bytes are the same without the format-string parse.
    char buf[32];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 15);
    H3CDN_EXPECTS(ec == std::errc());
    out_.append(buf, end);
  } else {
    out_ += "null";  // JSON has no NaN/Inf
  }
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  pre_value();
  append_integer(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  pre_value();
  append_integer(out_, v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  pre_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  pre_value();
  out_ += "null";
  return *this;
}

const std::string& JsonWriter::str() const {
  H3CDN_EXPECTS(stack_.empty());
  return out_;
}

}  // namespace h3cdn::util
