#include "collabqos/pubsub/message.hpp"

#include "collabqos/pubsub/selector_cache.hpp"
#include "collabqos/telemetry/pipeline.hpp"

namespace collabqos::pubsub {

namespace {
constexpr std::uint8_t kMessageMagic = 0xE5;
}

serde::SharedBytes SemanticMessage::encode() const {
  serde::Writer w;
  // magic + selector + content + varints rarely exceed this; the point
  // is to land the common case in a single allocation.
  w.reserve(payload.size() + event_type.size() + 160);
  w.u8(kMessageMagic);
  selector.encode(w);
  content.encode(w);
  w.string(event_type);
  w.varint(sender_id);
  w.varint(sequence);
  w.blob(payload);
  auto& copies = telemetry::PipelineCounters::global();
  copies.charge(copies.encode, payload.size());
  return serde::SharedBytes(std::move(w).take());
}

namespace {

Result<SemanticMessage> decode_message_chain(const serde::ByteChain& bytes,
                                             SelectorCache* cache) {
  if (!bytes.contiguous()) {
    // The header itself straddles slices (tiny-MTU fragmentation cut
    // through it): gather once — charged — then take the fast path on
    // the now-contiguous chain.
    serde::SharedBytes flat = telemetry::flatten_counted(
        bytes, telemetry::PipelineCounters::global().message_decode);
    return decode_message_chain(serde::ByteChain(std::move(flat)), cache);
  }
  // Contiguous fast path: the selector cache fingerprints the selector's
  // wire bytes in place, and the payload stays a view of the input.
  serde::Reader r(bytes);
  SemanticMessage message;
  if (r.u8() != kMessageMagic) {
    r.fail(Errc::malformed, "not a semantic message");
  }
  message.selector = cache ? cache->decode(r) : Selector::decode(r);
  message.content = AttributeSet::decode(r);
  message.event_type.assign(r.view_string());
  message.sender_id = r.varint();
  message.sequence = r.varint();
  message.payload = r.view_blob();
  if (!r.exhausted()) {
    r.fail(Errc::malformed, "trailing bytes after message");
  }
  if (!r.ok()) return r.error();
  return message;
}

}  // namespace

Result<SemanticMessage> SemanticMessage::decode(const serde::ByteChain& bytes) {
  return decode_message_chain(bytes, nullptr);
}

Result<SemanticMessage> SemanticMessage::decode(const serde::ByteChain& bytes,
                                                SelectorCache& cache) {
  return decode_message_chain(bytes, &cache);
}

MatchDecision match(const Profile& profile, const SemanticMessage& message) {
  MatchDecision decision;
  // Step 1: the sender's selector must admit this profile.
  if (!message.selector.matches(profile.attributes())) {
    return decision;  // rejected
  }
  // Step 2: no interest expression means "interested in everything the
  // selector sends my way".
  if (!profile.interest()) {
    decision.kind = MatchDecision::Kind::accepted;
    return decision;
  }
  if (profile.interest()->matches(message.content)) {
    decision.kind = MatchDecision::Kind::accepted;
    return decision;
  }
  // Step 3: try each declared capability as a content rewrite
  // (Figure 3: profile 3 accepts MPEG2 video by transforming to JPEG).
  for (const TransformCapability& capability : profile.capabilities()) {
    const AttributeValue* actual = message.content.find(capability.attribute);
    if (actual == nullptr || !actual->equals(capability.from)) continue;
    AttributeSet rewritten = message.content;
    rewritten.set(capability.attribute, capability.to);
    if (profile.interest()->matches(rewritten)) {
      decision.kind = MatchDecision::Kind::accepted_with_transformation;
      decision.transformation = capability;
      return decision;
    }
  }
  return decision;  // rejected
}

}  // namespace collabqos::pubsub
