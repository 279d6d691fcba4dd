// Explicit little-endian byte serialisation for journal frames and state
// checkpoints.
//
// The journal format must be stable across builds and platforms, so nothing
// here relies on struct layout or host endianness: every integer is written
// byte-by-byte, doubles go through a bit_cast to u64, strings carry a u32
// length prefix. ByteReader mirrors ByteWriter and latches an `ok` flag on
// the first out-of-bounds read instead of throwing, so a truncated payload
// degrades into a single failed Status at the call site.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace fraudsim::util {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { put_le(v, 2); }
  void u32(std::uint32_t v) { put_le(v, 4); }
  void u64(std::uint64_t v) { put_le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }
  // Appends bytes verbatim (no length prefix) — for embedding an
  // already-serialised sub-payload into a frame.
  void raw(std::string_view s) { buf_.append(s.data(), s.size()); }

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  void put_le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }

  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t u8() { return static_cast<std::uint8_t>(get_le(1)); }
  [[nodiscard]] std::uint16_t u16() { return static_cast<std::uint16_t>(get_le(2)); }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(get_le(4)); }
  [[nodiscard]] std::uint64_t u64() { return get_le(8); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] std::string str() {
    const auto n = u32();
    if (!ok_ || bytes_.size() - pos_ < n) {
      ok_ = false;
      return {};
    }
    std::string out(bytes_.substr(pos_, n));
    pos_ += n;
    return out;
  }

  // Reads a u64 element count and fails when the remaining bytes cannot hold
  // that many elements of at least `min_elem_bytes` each, so a hostile count
  // can never drive an allocation or a loop past the size of the input.
  [[nodiscard]] std::uint64_t count(std::size_t min_elem_bytes) {
    const std::uint64_t n = u64();
    if (ok_ && n > remaining() / min_elem_bytes) ok_ = false;
    return ok_ ? n : 0;
  }

  // True while every read so far stayed in bounds.
  [[nodiscard]] bool ok() const { return ok_; }
  // True when the payload was consumed exactly (no trailing garbage).
  [[nodiscard]] bool exhausted() const { return ok_ && pos_ == bytes_.size(); }
  [[nodiscard]] std::size_t remaining() const { return ok_ ? bytes_.size() - pos_ : 0; }
  // Latches ok() false, as an out-of-bounds read does. Decoders call it on
  // bytes that are in bounds but invalid (an out-of-range enum, unsorted keys).
  void fail() { ok_ = false; }

 private:
  [[nodiscard]] std::uint64_t get_le(int n) {
    if (!ok_ || bytes_.size() - pos_ < static_cast<std::size_t>(n)) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < n; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    }
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace fraudsim::util
