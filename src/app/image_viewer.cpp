#include "collabqos/app/image_viewer.hpp"

#include "collabqos/media/codec.hpp"
#include "collabqos/media/sketch.hpp"

namespace collabqos::app {

ImageViewer::ImageViewer(core::CollaborationClient& client)
    : client_(client) {
  client_.on_media([this](const pubsub::SemanticMessage& message,
                          const media::MediaObject& object,
                          const core::MediaAdaptationReport& report) {
    on_media(message, object, report);
  });
}

Status ImageViewer::share(const media::Image& image, std::string object_id,
                          std::string description, pubsub::Selector audience,
                          media::CodecParams codec) {
  media::ImageMedia media;
  media.width = image.width();
  media.height = image.height();
  media.channels = image.channels();
  media.description = std::move(description);
  media.encoded = media::encode_progressive(image, codec);
  // The paper's three-part file: description + base sketch + full data.
  media.sketch = media::extract_sketch(image, media.description);

  pubsub::AttributeSet content;
  content.set("media.type", "image");
  content.set("image.width", image.width());
  content.set("image.height", image.height());
  content.set("image.color", image.channels() == 3);
  content.set("image.size",
              static_cast<std::int64_t>(media.encoded.total_bytes()));
  return client_.share_media(media::MediaObject(std::move(media)),
                             std::move(audience), std::move(content),
                             std::move(object_id));
}

void ImageViewer::on_media(const pubsub::SemanticMessage& message,
                           const media::MediaObject& object,
                           const core::MediaAdaptationReport& report) {
  Display display;
  if (const pubsub::AttributeValue* id = message.content.find("object.id")) {
    if (const auto text = id->as_string()) display.object_id = *text;
  }
  display.modality = object.modality();
  display.report = report;
  displays_.push_back(std::move(display));

  screen_.image.reset();
  switch (object.modality()) {
    case media::Modality::image: {
      const auto* media = object.get_if<media::ImageMedia>();
      auto decoded = media::decode_progressive(
          media->encoded, media->encoded.packets.size());
      if (decoded) screen_.image = std::move(decoded).take();
      screen_.text = media->description;
      break;
    }
    case media::Modality::sketch: {
      const auto* media = object.get_if<media::SketchMedia>();
      auto rendered = media::render_sketch(media->sketch);
      if (rendered) screen_.image = std::move(rendered).take();
      screen_.text = media->sketch.description;
      break;
    }
    case media::Modality::text:
      screen_.text = object.get_if<media::TextMedia>()->text;
      break;
    case media::Modality::speech:
      screen_.text = object.get_if<media::SpeechMedia>()->transcript;
      break;
  }
}

}  // namespace collabqos::app
