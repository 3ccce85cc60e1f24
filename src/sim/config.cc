#include "sim/config.hh"

namespace tta::sim {

const char *
accelModeName(AccelMode mode)
{
    switch (mode) {
      case AccelMode::BaselineGpu: return "BaselineGPU";
      case AccelMode::BaselineRta: return "BaselineRTA";
      case AccelMode::Tta: return "TTA";
      case AccelMode::TtaPlus: return "TTA+";
    }
    return "unknown";
}

} // namespace tta::sim
