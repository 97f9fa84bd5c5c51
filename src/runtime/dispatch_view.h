/**
 * @file
 * Forwarding header: the dispatcher view lives in common/dispatch_view.h,
 * shared by the runtime and the simulator. Kept for code that includes
 * this path and names tq::runtime::DispatchView.
 */
#ifndef TQ_RUNTIME_DISPATCH_VIEW_H
#define TQ_RUNTIME_DISPATCH_VIEW_H

#include "common/dispatch_view.h"

namespace tq::runtime {
using tq::DispatchView;
} // namespace tq::runtime

#endif // TQ_RUNTIME_DISPATCH_VIEW_H
