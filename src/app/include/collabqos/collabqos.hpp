// Umbrella header: everything a typical collabqos application needs.
// Fine-grained headers remain available for targeted includes.
#pragma once

#include "collabqos/app/chat.hpp"
#include "collabqos/app/floor_control.hpp"
#include "collabqos/app/image_viewer.hpp"
#include "collabqos/app/whiteboard.hpp"
#include "collabqos/core/archive.hpp"
#include "collabqos/core/basestation_peer.hpp"
#include "collabqos/core/client.hpp"
#include "collabqos/core/session.hpp"
#include "collabqos/core/thin_client.hpp"
#include "collabqos/core/workstation.hpp"
#include "collabqos/media/codec.hpp"
#include "collabqos/media/image.hpp"
#include "collabqos/media/sketch.hpp"
#include "collabqos/media/transform.hpp"
#include "collabqos/net/network.hpp"
#include "collabqos/pubsub/peer.hpp"
#include "collabqos/sim/simulator.hpp"
#include "collabqos/snmp/host_mib.hpp"
#include "collabqos/snmp/manager.hpp"
#include "collabqos/wireless/basestation.hpp"

namespace collabqos {

/// Library version (semantic).
inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 0;
inline constexpr int kVersionPatch = 0;

}  // namespace collabqos
