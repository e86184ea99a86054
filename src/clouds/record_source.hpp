#pragma once

// The in-memory record scan under its historical name.  Kept only because
// the host-cost benchmark's probes include this header and name the type;
// new code uses io::RecordScan<data::Record> directly.

#include "data/record.hpp"
#include "io/scan.hpp"

namespace pdc::clouds {

using MemorySource = io::RecordScan<data::Record>;

}  // namespace pdc::clouds
