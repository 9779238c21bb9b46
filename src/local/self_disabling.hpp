// Assumptions 1 and 2 of Section 5: self-termination and self-disablement.
#pragma once

#include "core/protocol.hpp"
#include "graph/digraph.hpp"

namespace ringstab {

/// The local t-arc graph: one vertex per local state and one arc per local
/// transition, from its source to its target.
Digraph t_arc_graph(const Protocol& p);

/// Assumption 2: every local transition disables its own process (its
/// target local state is a local deadlock).
bool is_self_disabling(const Protocol& p);

/// Assumption 1: every sequence of local transitions terminates (the
/// t-arc graph over local states is acyclic).
bool is_self_terminating(const Protocol& p);

/// The paper's transformation making a protocol self-disabling without
/// adding deadlocks or livelocks in ¬I: each transition whose target is
/// still enabled is replaced by transitions to every terminal local deadlock
/// reachable from that target. Throws ModelError if the protocol is not
/// self-terminating (a local t-arc cycle), where the transformation is
/// undefined.
Protocol make_self_disabling(const Protocol& p);

}  // namespace ringstab
