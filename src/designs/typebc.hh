/**
 * @file
 * The eleven Type B / Type C dataflow designs of Table 4 — the benchmark
 * suite the paper built because no existing HLS suite contains designs
 * that C-level simulation cannot handle. Each builder returns a fresh
 * Design; see typebc.cc for the per-design structure and the deltas from
 * the paper's (unpublished-source) versions.
 */

#ifndef OMNISIM_DESIGNS_TYPEBC_HH
#define OMNISIM_DESIGNS_TYPEBC_HH

#include "design/design.hh"

namespace omnisim::designs
{

/** Fig. 4 Ex. 2: NB writes in an infinite loop ended by a done signal. */
Design buildFig4Ex2();

/** Fig. 4 Ex. 3: cyclic controller/processor with blocking FIFOs. */
Design buildFig4Ex3();

/** Fig. 4 Ex. 4a: NB writes, silently dropped on full. */
Design buildFig4Ex4a();

/** Fig. 4 Ex. 4a with an infinite loop ended by a done signal. */
Design buildFig4Ex4aD();

/** Fig. 4 Ex. 4b: NB writes with an explicit dropped-element counter. */
Design buildFig4Ex4b();

/** Fig. 4 Ex. 4b with an infinite loop ended by a done signal. */
Design buildFig4Ex4bD();

/** Fig. 4 Ex. 5: congestion-aware dispatch to a fast and a slow PE. */
Design buildFig4Ex5();

/** Fig. 2: a timer module counting cycles until a compute result. */
Design buildFig2Timer();

/** Two tasks blocking on mutually empty FIFOs: a true deadlock. */
Design buildDeadlock();

/** Speculative fetcher with a branch-redirect feedback loop. */
Design buildBranch();

/** 16 branch cores + dispatcher + collector: 34 modules, 64 FIFOs. */
Design buildMulticore();

} // namespace omnisim::designs

#endif // OMNISIM_DESIGNS_TYPEBC_HH
