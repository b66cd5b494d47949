// Endian-pinned binary primitives for the hamlet model format.
//
// ModelWriter/ModelReader are the byte layer under io::SaveModel /
// io::LoadModel (serialize.h): fixed-width little-endian integers
// (assembled byte-by-byte, so the on-disk format is identical on any
// host), IEEE-754 doubles round-tripped through their bit pattern (the
// loaded model predicts bit-identically to the saved one), and
// length-prefixed vectors with plausibility caps so a corrupt length
// field produces a Status instead of a giant allocation. All reader
// failures — truncation, stream errors, implausible lengths — surface as
// Status; nothing in this layer throws or aborts on malformed input.

#ifndef HAMLET_IO_MODEL_IO_H_
#define HAMLET_IO_MODEL_IO_H_

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "hamlet/common/status.h"
#include "hamlet/common/attributes.h"
#include "hamlet/data/code_matrix.h"

namespace hamlet {
namespace io {

/// First bytes of every hamlet model file ("HMLM" = HaMLet Model).
inline constexpr char kModelMagic[4] = {'H', 'M', 'L', 'M'};
/// Last bytes of every model file; catches silent truncation after an
/// otherwise-complete body.
inline constexpr char kModelFooter[4] = {'M', 'L', 'M', 'H'};
/// Container format version written by SaveModel. Bump on any layout
/// change; LoadModel rejects versions outside
/// [kMinModelFormatVersion, kModelFormatVersion] with an InvalidArgument
/// Status naming both versions. v2 added the CRC-32 body checksum (a u32
/// between body and footer, covering family tag + domain header + body);
/// v1 files (no checksum) still load.
inline constexpr uint32_t kModelFormatVersion = 2;
inline constexpr uint32_t kMinModelFormatVersion = 1;

/// Upper bound on any single serialized vector (element count). Far
/// above any real model section, low enough that a corrupt length field
/// fails cleanly instead of attempting a multi-GiB resize.
inline constexpr uint64_t kMaxVectorElements = uint64_t{1} << 28;

/// Little-endian serializer over an ostream. Write failures latch into
/// status(); callers can write a whole section and check once.
class ModelWriter {
 public:
  explicit ModelWriter(std::ostream& os) : os_(os) {}

  void WriteU8(uint8_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v);
  /// IEEE-754 bit pattern as a u64; exact round trip.
  void WriteF64(double v);
  /// u64 length + elements.
  void WriteU8Vec(const std::vector<uint8_t>& v);
  void WriteU32Vec(const std::vector<uint32_t>& v);
  void WriteF64Vec(const std::vector<double>& v);
  /// num_rows, num_features, codes, labels, domain sizes — the full
  /// standalone snapshot (1-NN's train matrix, SVM support-vector slices).
  void WriteCodeMatrix(const CodeMatrix& m);
  /// Raw bytes, no length prefix (magic/footer markers).
  void WriteRaw(const void* data, size_t n);

  /// Starts folding every subsequently written byte into a CRC-32.
  /// TakeChecksum() finalizes and stops accumulating, so the checksum
  /// field itself (written right after) is not part of its own coverage.
  void BeginChecksum();
  uint32_t TakeChecksum();

  const Status& status() const { return status_; }

 private:
  void WriteBytes(const void* data, size_t n);

  std::ostream& os_;
  Status status_;
  bool checksumming_ = false;
  uint32_t crc_state_ = 0;
};

/// Little-endian deserializer over an istream. Every Read* returns
/// Status; a short read reports OutOfRange ("truncated model stream").
class ModelReader {
 public:
  explicit ModelReader(std::istream& is) : is_(is) {}

  HAMLET_NODISCARD Status ReadU8(uint8_t* out);
  HAMLET_NODISCARD Status ReadU32(uint32_t* out);
  HAMLET_NODISCARD Status ReadU64(uint64_t* out);
  HAMLET_NODISCARD Status ReadI32(int32_t* out);
  HAMLET_NODISCARD Status ReadF64(double* out);
  HAMLET_NODISCARD Status ReadU8Vec(std::vector<uint8_t>* out);
  HAMLET_NODISCARD Status ReadU32Vec(std::vector<uint32_t>* out);
  HAMLET_NODISCARD Status ReadF64Vec(std::vector<double>* out);
  HAMLET_NODISCARD Status ReadCodeMatrix(CodeMatrix* out);

  /// Reads `n` bytes and fails unless they equal `expected` (magic /
  /// footer checks); `what` names the field in the error message. A
  /// short read keeps its underlying code (OutOfRange), so retry logic
  /// can tell truncation from a byte mismatch (InvalidArgument).
  HAMLET_NODISCARD Status ExpectBytes(const char* expected, size_t n,
                                      const char* what);

  /// Mirror of the writer's checksum window: BeginChecksum() starts
  /// folding every subsequently read byte into a CRC-32; TakeChecksum()
  /// finalizes and stops, leaving the stored checksum field (read next)
  /// outside its own coverage.
  void BeginChecksum();
  uint32_t TakeChecksum();

 private:
  HAMLET_NODISCARD Status ReadBytes(void* data, size_t n);
  /// Reads a u64 length field and validates it against kMaxVectorElements.
  HAMLET_NODISCARD Status ReadLength(uint64_t* out, const char* what);

  std::istream& is_;
  bool checksumming_ = false;
  uint32_t crc_state_ = 0;
};

}  // namespace io
}  // namespace hamlet

#endif  // HAMLET_IO_MODEL_IO_H_
