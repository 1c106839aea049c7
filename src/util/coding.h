#ifndef TREELATTICE_UTIL_CODING_H_
#define TREELATTICE_UTIL_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace treelattice {

/// Fixed-width little-endian encoding helpers for on-disk formats. All
/// multi-byte integers in TreeLattice file formats are little-endian
/// regardless of host byte order.

inline void PutFixed32(std::string* out, uint32_t value) {
  char buf[4];
  buf[0] = static_cast<char>(value & 0xff);
  buf[1] = static_cast<char>((value >> 8) & 0xff);
  buf[2] = static_cast<char>((value >> 16) & 0xff);
  buf[3] = static_cast<char>((value >> 24) & 0xff);
  out->append(buf, 4);
}

inline void PutFixed64(std::string* out, uint64_t value) {
  PutFixed32(out, static_cast<uint32_t>(value & 0xffffffffu));
  PutFixed32(out, static_cast<uint32_t>(value >> 32));
}

inline uint32_t DecodeFixed32(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

inline uint64_t DecodeFixed64(const char* p) {
  return static_cast<uint64_t>(DecodeFixed32(p)) |
         (static_cast<uint64_t>(DecodeFixed32(p + 4)) << 32);
}

/// Bounds-checked sequential reader over an in-memory byte buffer. All
/// Get* calls fail (return false) instead of reading past the end, so a
/// corrupt length field can never cause an out-of-bounds read.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t offset() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return remaining() == 0; }

  bool GetFixed32(uint32_t* value) {
    if (remaining() < 4) return false;
    *value = DecodeFixed32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool GetFixed64(uint64_t* value) {
    if (remaining() < 8) return false;
    *value = DecodeFixed64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }

  bool GetBytes(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace treelattice

#endif  // TREELATTICE_UTIL_CODING_H_
