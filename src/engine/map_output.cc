#include "engine/map_output.h"

#include <algorithm>
#include <cstring>

namespace opmr {

void MapOutputBuffer::Sort() {
  std::sort(records_.begin(), records_.end(),
            [](const RecordMeta& a, const RecordMeta& b) {
              if (a.partition != b.partition) return a.partition < b.partition;
              const std::size_t min_len =
                  a.key_len < b.key_len ? a.key_len : b.key_len;
              const int c =
                  min_len == 0 ? 0 : std::memcmp(a.key, b.key, min_len);
              if (c != 0) return c < 0;
              return a.key_len < b.key_len;
            });
}

}  // namespace opmr
