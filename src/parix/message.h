// Messages exchanged between virtual processors.
//
// Payloads are moved into a type-erased shared pointer on send and
// checked against the expected type on receive; a mismatch indicates a
// program error (unmatched send/recv pair) and raises RuntimeFault.
// The payload size in "wire bytes" is computed by the payload_bytes
// customisation point below so the cost model can price the transfer.
//
// Payloads can also travel as *shared buffers* (make_shared_message):
// sender and message reference one immutable value, so posting a send
// does not copy the data.  The receiver either copies the value out
// (take_payload; see there for why it must not move) or keeps the
// buffer itself (Proc::recv_buffer), so a tree broadcast forwards one
// buffer on every edge.  The modeled wire cost is unchanged either way
// (the 1996 machine did copy into send buffers; only host copies
// disappear).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <typeinfo>
#include <vector>

namespace skil::parix {

/// Wire-size estimate of a payload, used by the cost model.
/// Trivially copyable values cost their object size; vectors cost the
/// element data plus a small length header.  Other payload types must
/// overload payload_bytes in their own namespace (found by ADL).
template <class T>
  requires std::is_trivially_copyable_v<T>
std::size_t payload_bytes(const T&) {
  return sizeof(T);
}

/// Wire size of a vector of `elems` trivially copyable elements of
/// `elem_bytes` each: the data plus a small length header.  Also sizes
/// SKIL_COLL=auto's dry runs (coll_pick.cpp).
constexpr std::size_t vector_wire_bytes(std::size_t elems,
                                        std::size_t elem_bytes) {
  return elems * elem_bytes + 8;
}

template <class T>
  requires std::is_trivially_copyable_v<T>
std::size_t payload_bytes(const std::vector<T>& v) {
  return vector_wire_bytes(v.size(), sizeof(T));
}

inline std::size_t payload_bytes(const std::string& s) {
  return s.size() + 8;
}

/// Std-only element types the generic vector overload below supports.
/// They need this explicit list because a requires-clause cannot find
/// that overload recursively: unqualified lookup inside it predates
/// the overload's own declaration, and ADL for std types only reaches
/// namespace std.  User types rely on ADL instead (see below).
template <class T>
inline constexpr bool builtin_wire_element_v = false;
template <>
inline constexpr bool builtin_wire_element_v<std::string> = true;
template <class T>
inline constexpr bool builtin_wire_element_v<std::vector<T>> =
    std::is_trivially_copyable_v<T> || builtin_wire_element_v<T>;

/// Vectors of non-trivially-copyable elements (vector<string>,
/// vector<vector<T>>, vector of an ADL-priced user type, ...): a
/// length header plus the wire size of every element, recursively.
template <class T>
  requires(!std::is_trivially_copyable_v<T> &&
           (builtin_wire_element_v<T> ||
            requires(const T& t) {
              { payload_bytes(t) } -> std::convertible_to<std::size_t>;
            }))
std::size_t payload_bytes(const std::vector<T>& v) {
  std::size_t total = 8;
  for (const auto& elem : v) total += payload_bytes(elem);
  return total;
}

/// Satisfied by every type the message layer can price.  make_message
/// checks it so an unsupported payload fails with a readable
/// diagnostic instead of an overload-resolution dump.
template <class T>
concept WirePayload = requires(const T& t) {
  { payload_bytes(t) } -> std::convertible_to<std::size_t>;
};

/// A message in flight or queued in a mailbox.
struct Message {
  int src = -1;
  long tag = 0;
  std::shared_ptr<void> payload;       ///< points at a T
  const std::type_info* type = nullptr;
  std::size_t bytes = 0;               ///< modeled wire size
  double arrival_vtime = 0.0;          ///< virtual delivery timestamp
  bool shared = false;                 ///< payload may have other owners
  /// Sender-side trace sequence number (parix/trace.h): stamped only
  /// when full tracing is on, so the receiver's event can reference
  /// its exact causal predecessor.  Host-side bookkeeping only; the
  /// cost model never reads it.
  std::uint32_t trace_seq = 0;
};

/// Builds a message from a payload value (moved in).
template <class T>
Message make_message(int src, long tag, T value, double arrival_vtime) {
  static_assert(WirePayload<T>,
                "message payload type has no payload_bytes overload; "
                "define std::size_t payload_bytes(const T&) in the "
                "payload's namespace so the cost model can price it");
  Message msg;
  msg.src = src;
  msg.tag = tag;
  msg.bytes = payload_bytes(value);
  msg.type = &typeid(T);
  msg.payload = std::make_shared<T>(std::move(value));
  msg.arrival_vtime = arrival_vtime;
  return msg;
}

/// Builds a message around an existing immutable buffer without
/// copying it.  The type_info is that of T itself, so the receiver's
/// recv<T> matches messages from make_message<T> interchangeably.
template <class T>
Message make_shared_message(int src, long tag, std::shared_ptr<const T> value,
                            double arrival_vtime) {
  static_assert(WirePayload<T>,
                "message payload type has no payload_bytes overload; "
                "define std::size_t payload_bytes(const T&) in the "
                "payload's namespace so the cost model can price it");
  Message msg;
  msg.src = src;
  msg.tag = tag;
  msg.bytes = payload_bytes(*value);
  msg.type = &typeid(T);
  // The buffer is never mutated through this pointer (take_payload
  // copies shared buffers, Proc::recv_buffer hands them back const),
  // so shedding the const for type-erased storage is safe.
  msg.payload = std::const_pointer_cast<T>(std::move(value));
  msg.arrival_vtime = arrival_vtime;
  msg.shared = true;
  return msg;
}

/// Extracts the payload: moves it out of an exclusively owned message,
/// copies from a shared buffer.  Shared buffers must be copied even
/// when use_count() reads 1: the sender keeps reading the buffer
/// through its own reference after posting the async send, and a
/// relaxed use_count() observation of its drop does not synchronize
/// with those final reads -- moving the vector header here would be a
/// data race (caught by the TSan CI job).  Only the sender-side copy
/// is elided; the modeled wire cost already includes the copy.
template <class T>
T take_payload(Message& msg) {
  T* value = static_cast<T*>(msg.payload.get());
  if (msg.shared) return *value;
  return std::move(*value);
}

}  // namespace skil::parix
