#include "hamlet/io/model_io.h"

#include <cstring>
#include <istream>
#include <ostream>

#include "hamlet/common/crc32.h"

namespace hamlet {
namespace io {

namespace {

/// Assembles the low `n` bytes of `v` least-significant-first. The
/// on-disk byte order is a property of this loop, not of the host.
void PackLe(uint64_t v, unsigned char* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xffu);
  }
}

uint64_t UnpackLe(const unsigned char* in, size_t n) {
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v |= static_cast<uint64_t>(in[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void ModelWriter::WriteBytes(const void* data, size_t n) {
  if (!status_.ok()) return;
  os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  if (!os_.good()) {
    status_ = Status::Internal("model stream write failed");
    return;
  }
  if (checksumming_) crc_state_ = Crc32Feed(crc_state_, data, n);
}

void ModelWriter::BeginChecksum() {
  checksumming_ = true;
  crc_state_ = kCrc32Init;
}

uint32_t ModelWriter::TakeChecksum() {
  checksumming_ = false;
  return Crc32Finalize(crc_state_);
}

void ModelWriter::WriteRaw(const void* data, size_t n) {
  WriteBytes(data, n);
}

void ModelWriter::WriteU8(uint8_t v) { WriteBytes(&v, 1); }

void ModelWriter::WriteU32(uint32_t v) {
  unsigned char b[4];
  PackLe(v, b, 4);
  WriteBytes(b, 4);
}

void ModelWriter::WriteU64(uint64_t v) {
  unsigned char b[8];
  PackLe(v, b, 8);
  WriteBytes(b, 8);
}

void ModelWriter::WriteI32(int32_t v) {
  WriteU32(static_cast<uint32_t>(v));
}

void ModelWriter::WriteF64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void ModelWriter::WriteU8Vec(const std::vector<uint8_t>& v) {
  WriteU64(v.size());
  WriteBytes(v.data(), v.size());
}

void ModelWriter::WriteU32Vec(const std::vector<uint32_t>& v) {
  WriteU64(v.size());
  for (uint32_t x : v) WriteU32(x);
}

void ModelWriter::WriteF64Vec(const std::vector<double>& v) {
  WriteU64(v.size());
  for (double x : v) WriteF64(x);
}

void ModelWriter::WriteCodeMatrix(const CodeMatrix& m) {
  WriteU64(m.num_rows());
  WriteU64(m.num_features());
  WriteU32Vec(m.codes());
  WriteU8Vec(m.labels());
  WriteU32Vec(m.domain_sizes());
}

Status ModelReader::ReadBytes(void* data, size_t n) {
  is_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
  if (static_cast<size_t>(is_.gcount()) != n) {
    return Status::OutOfRange("truncated model stream");
  }
  if (checksumming_) crc_state_ = Crc32Feed(crc_state_, data, n);
  return Status::OK();
}

void ModelReader::BeginChecksum() {
  checksumming_ = true;
  crc_state_ = kCrc32Init;
}

uint32_t ModelReader::TakeChecksum() {
  checksumming_ = false;
  return Crc32Finalize(crc_state_);
}

Status ModelReader::ReadLength(uint64_t* out, const char* what) {
  HAMLET_RETURN_IF_ERROR(ReadU64(out));
  if (*out > kMaxVectorElements) {
    return Status::InvalidArgument(
        std::string("corrupt model: implausible ") + what + " length " +
        std::to_string(*out));
  }
  return Status::OK();
}

Status ModelReader::ReadU8(uint8_t* out) { return ReadBytes(out, 1); }

Status ModelReader::ReadU32(uint32_t* out) {
  unsigned char b[4];
  HAMLET_RETURN_IF_ERROR(ReadBytes(b, 4));
  *out = static_cast<uint32_t>(UnpackLe(b, 4));
  return Status::OK();
}

Status ModelReader::ReadU64(uint64_t* out) {
  unsigned char b[8];
  HAMLET_RETURN_IF_ERROR(ReadBytes(b, 8));
  *out = UnpackLe(b, 8);
  return Status::OK();
}

Status ModelReader::ReadI32(int32_t* out) {
  uint32_t u;
  HAMLET_RETURN_IF_ERROR(ReadU32(&u));
  *out = static_cast<int32_t>(u);
  return Status::OK();
}

Status ModelReader::ReadF64(double* out) {
  uint64_t bits;
  HAMLET_RETURN_IF_ERROR(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status ModelReader::ReadU8Vec(std::vector<uint8_t>* out) {
  uint64_t n;
  HAMLET_RETURN_IF_ERROR(ReadLength(&n, "u8 vector"));
  out->resize(static_cast<size_t>(n));
  return n == 0 ? Status::OK() : ReadBytes(out->data(),
                                           static_cast<size_t>(n));
}

Status ModelReader::ReadU32Vec(std::vector<uint32_t>* out) {
  uint64_t n;
  HAMLET_RETURN_IF_ERROR(ReadLength(&n, "u32 vector"));
  out->resize(static_cast<size_t>(n));
  for (uint32_t& x : *out) HAMLET_RETURN_IF_ERROR(ReadU32(&x));
  return Status::OK();
}

Status ModelReader::ReadF64Vec(std::vector<double>* out) {
  uint64_t n;
  HAMLET_RETURN_IF_ERROR(ReadLength(&n, "f64 vector"));
  out->resize(static_cast<size_t>(n));
  for (double& x : *out) HAMLET_RETURN_IF_ERROR(ReadF64(&x));
  return Status::OK();
}

Status ModelReader::ReadCodeMatrix(CodeMatrix* out) {
  uint64_t rows, features;
  HAMLET_RETURN_IF_ERROR(ReadLength(&rows, "CodeMatrix rows"));
  HAMLET_RETURN_IF_ERROR(ReadLength(&features, "CodeMatrix features"));
  std::vector<uint32_t> codes;
  std::vector<uint8_t> labels;
  std::vector<uint32_t> domains;
  HAMLET_RETURN_IF_ERROR(ReadU32Vec(&codes));
  HAMLET_RETURN_IF_ERROR(ReadU8Vec(&labels));
  HAMLET_RETURN_IF_ERROR(ReadU32Vec(&domains));
  if (labels.size() != rows || domains.size() != features) {
    return Status::InvalidArgument(
        "corrupt model: CodeMatrix section sizes disagree with its header");
  }
  Result<CodeMatrix> m = CodeMatrix::FromParts(
      static_cast<size_t>(features), std::move(codes), std::move(labels),
      std::move(domains));
  if (!m.ok()) return m.status();
  *out = std::move(m).value();
  return Status::OK();
}

Status ModelReader::ExpectBytes(const char* expected, size_t n,
                                const char* what) {
  std::vector<char> got(n);
  Status st = ReadBytes(got.data(), n);
  if (!st.ok()) {
    // Keep the short-read code (OutOfRange): a truncated stream is a
    // different failure class from a present-but-wrong marker, and the
    // load retry wrapper treats only the former as possibly transient.
    return Status::FromCode(st.code(), std::string("not a hamlet model: ") +
                                           what + " missing (" +
                                           st.message() + ")");
  }
  if (std::memcmp(got.data(), expected, n) != 0) {
    return Status::InvalidArgument(std::string("not a hamlet model: bad ") +
                                   what);
  }
  return Status::OK();
}

}  // namespace io
}  // namespace hamlet
