// ByteReader/ByteWriter harness: the primitives every wire format and
// model artifact in the repo is built from.
//
// Two phases per input:
//   1. Write/read interpreter: the input encodes a sequence of typed
//      writes; the harness performs them, then reads the buffer back in
//      the same order and asserts bit-exact round-trips plus correct
//      remaining()/at_end() accounting.
//   2. Adversarial reads: the raw input itself is treated as a buffer and
//      hit with an input-chosen sequence of reads. Every read either
//      succeeds (consuming exactly its width) or throws lcrs::Error with
//      the cursor untouched -- never crashes, never over-consumes.
#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "fuzz_util.h"

using namespace lcrs;

namespace {

enum class Op : std::uint8_t {
  kU8 = 0,
  kU32,
  kU64,
  kI64,
  kF32,
  kF64,
  kString,
  kBytes,
  kCount,
};

struct Step {
  Op op;
  std::uint64_t integer = 0;
  double real = 0.0;
  std::vector<std::uint8_t> blob;  // kString/kBytes payload
};

void roundtrip_interpreter(fuzz::FuzzInput* in) {
  ByteWriter w;
  std::vector<Step> steps;
  const int n_steps = static_cast<int>(in->take_range(0, 24));
  for (int i = 0; i < n_steps; ++i) {
    Step s;
    s.op = static_cast<Op>(in->take_range(0, static_cast<std::int64_t>(
                                                 Op::kCount) -
                                                 1));
    switch (s.op) {
      case Op::kU8:
        s.integer = in->take_u8();
        w.write_u8(static_cast<std::uint8_t>(s.integer));
        break;
      case Op::kU32:
        s.integer = in->take_u32();
        w.write_u32(static_cast<std::uint32_t>(s.integer));
        break;
      case Op::kU64:
        s.integer = static_cast<std::uint64_t>(in->take_u32()) << 32 |
                    in->take_u32();
        w.write_u64(s.integer);
        break;
      case Op::kI64:
        s.integer = static_cast<std::uint64_t>(in->take_u32()) << 32 |
                    in->take_u32();
        w.write_i64(static_cast<std::int64_t>(s.integer));
        break;
      case Op::kF32:
        s.real = static_cast<double>(in->take_f32());
        w.write_f32(static_cast<float>(s.real));
        break;
      case Op::kF64:
        s.real = static_cast<double>(in->take_f32());
        w.write_f64(s.real);
        break;
      case Op::kString: {
        const auto len = static_cast<std::size_t>(in->take_range(0, 33));
        s.blob.resize(len);
        for (auto& b : s.blob) b = in->take_u8();
        w.write_string(std::string(s.blob.begin(), s.blob.end()));
        break;
      }
      case Op::kBytes: {
        const auto len = static_cast<std::size_t>(in->take_range(0, 33));
        s.blob.resize(len);
        for (auto& b : s.blob) b = in->take_u8();
        w.write_bytes(s.blob.data(), s.blob.size());
        break;
      }
      case Op::kCount:
        break;
    }
    steps.push_back(std::move(s));
  }

  ByteReader r(w.bytes());
  for (const Step& s : steps) {
    switch (s.op) {
      case Op::kU8:
        FUZZ_ASSERT(r.read_u8() == static_cast<std::uint8_t>(s.integer),
                    "u8 round-trip mismatch");
        break;
      case Op::kU32:
        FUZZ_ASSERT(r.read_u32() == static_cast<std::uint32_t>(s.integer),
                    "u32 round-trip mismatch");
        break;
      case Op::kU64:
        FUZZ_ASSERT(r.read_u64() == s.integer, "u64 round-trip mismatch");
        break;
      case Op::kI64:
        FUZZ_ASSERT(r.read_i64() == static_cast<std::int64_t>(s.integer),
                    "i64 round-trip mismatch");
        break;
      case Op::kF32: {
        const float got = r.read_f32();
        const float want = static_cast<float>(s.real);
        FUZZ_ASSERT(std::memcmp(&got, &want, sizeof(got)) == 0,
                    "f32 round-trip not bit-exact");
        break;
      }
      case Op::kF64: {
        const double got = r.read_f64();
        FUZZ_ASSERT(std::memcmp(&got, &s.real, sizeof(got)) == 0,
                    "f64 round-trip not bit-exact");
        break;
      }
      case Op::kString: {
        const std::string got = r.read_string();
        // An empty blob's data() may be null, which memcmp must not see.
        FUZZ_ASSERT(got.size() == s.blob.size() &&
                        (got.empty() ||
                         std::memcmp(got.data(), s.blob.data(), got.size()) ==
                             0),
                    "string round-trip mismatch");
        break;
      }
      case Op::kBytes: {
        std::vector<std::uint8_t> got(s.blob.size());
        r.read_bytes(got.data(), got.size());
        FUZZ_ASSERT(got == s.blob, "bytes round-trip mismatch");
        break;
      }
      case Op::kCount:
        break;
    }
  }
  FUZZ_ASSERT(r.at_end(), "reader did not consume exactly what was written");
}

void adversarial_reads(const std::uint8_t* data, std::size_t size) {
  fuzz::FuzzInput script(data, size);
  const auto prefix = static_cast<std::size_t>(
      script.take_range(0, static_cast<std::int64_t>(size)));
  const std::vector<std::uint8_t> ops = script.take_rest();

  ByteReader r(data, prefix <= size ? prefix : size);
  for (const std::uint8_t op : ops) {
    const std::size_t before = r.remaining();
    try {
      switch (op % 8) {
        case 0: (void)r.read_u8(); break;
        case 1: (void)r.read_u32(); break;
        case 2: (void)r.read_u64(); break;
        case 3: (void)r.read_i64(); break;
        case 4: (void)r.read_f32(); break;
        case 5: (void)r.read_f64(); break;
        case 6: (void)r.read_string(); break;
        default: {
          std::uint8_t sink[16];
          r.read_bytes(sink, sizeof(sink));
          break;
        }
      }
      FUZZ_ASSERT(r.remaining() < before || before == 0,
                  "successful read consumed nothing");
    } catch (const Error&) {
      FUZZ_ASSERT(r.remaining() == before,
                  "failed read moved the cursor");
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size > (1u << 16)) return 0;
  fuzz::FuzzInput in(data, size);
  roundtrip_interpreter(&in);
  adversarial_reads(data, size);
  return 0;
}
