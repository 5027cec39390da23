#include "edge/protocol.h"

#include "common/bytes.h"
#include "tensor/serialize.h"

namespace lcrs::edge {

namespace {
constexpr std::uint32_t kFrameMagic = 0x4c435633;  // "LCV3"

MsgType check_type(std::uint8_t type) {
  constexpr std::uint8_t kReservedShutdown = 4;
  if (type == kReservedShutdown ||
      type > static_cast<std::uint8_t>(MsgType::kModelUnavailable)) {
    throw ParseError("unknown frame type");
  }
  return static_cast<MsgType>(type);
}
}  // namespace

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  // The wire carries a 32-bit payload length; a larger payload must be
  // rejected here, not silently truncated into a self-inconsistent frame.
  if (frame.payload.size() > UINT32_MAX) {
    throw InvalidArgument("frame payload of " +
                          std::to_string(frame.payload.size()) +
                          " bytes does not fit the u32 length field");
  }
  ByteWriter w;
  w.write_u32(kFrameMagic);
  w.write_u8(static_cast<std::uint8_t>(frame.type));
  w.write_u32(frame.model_id);
  w.write_u64(frame.trace_id);
  w.write_u32(static_cast<std::uint32_t>(frame.payload.size()));
  w.write_bytes(frame.payload.data(), frame.payload.size());
  return w.take();
}

std::uint32_t parse_frame_header(const std::uint8_t* header, Frame* frame) {
  ByteReader r(header, kFrameHeaderBytes);
  if (r.read_u32() != kFrameMagic) throw ParseError("bad frame magic");
  frame->type = check_type(r.read_u8());
  frame->model_id = r.read_u32();
  frame->trace_id = r.read_u64();
  return r.read_u32();
}

Frame decode_frame(const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    throw ParseError("frame header truncated");
  }
  Frame f;
  const std::uint32_t size = parse_frame_header(bytes.data(), &f);
  // Validate before allocating: corrupt length fields must not OOM.
  const std::size_t remaining = bytes.size() - kFrameHeaderBytes;
  if (size > remaining) throw ParseError("frame payload truncated");
  if (size < remaining) throw ParseError("trailing bytes after frame");
  f.payload.assign(bytes.data() + kFrameHeaderBytes,
                   bytes.data() + bytes.size());
  return f;
}

std::vector<std::uint8_t> make_complete_request(const Tensor& shared) {
  ByteWriter w;
  write_tensor(w, shared);
  return w.take();
}

Tensor parse_complete_request(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  return read_tensor(r);
}

std::vector<std::uint8_t> make_complete_response(const CompleteResponse& r) {
  ByteWriter w;
  w.write_i64(r.label);
  write_tensor(w, r.probabilities);
  return w.take();
}

CompleteResponse parse_complete_response(
    const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  CompleteResponse resp;
  resp.label = r.read_i64();
  resp.probabilities = read_tensor(r);
  return resp;
}

std::vector<std::uint8_t> make_busy_reply(std::uint32_t retry_after_ms) {
  ByteWriter w;
  w.write_u32(retry_after_ms);
  return w.take();
}

std::uint32_t parse_busy_reply(const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  const std::uint32_t retry_after_ms = r.read_u32();
  if (!r.at_end()) throw ParseError("trailing bytes after busy reply");
  return retry_after_ms;
}

std::vector<std::uint8_t> make_model_unavailable(std::uint32_t model_id) {
  ByteWriter w;
  w.write_u32(model_id);
  return w.take();
}

std::uint32_t parse_model_unavailable(
    const std::vector<std::uint8_t>& payload) {
  ByteReader r(payload);
  const std::uint32_t model_id = r.read_u32();
  if (!r.at_end()) {
    throw ParseError("trailing bytes after model-unavailable reply");
  }
  return model_id;
}

}  // namespace lcrs::edge
