package repro.baselines

import repro.core.SegmentTrace
import repro.sim._
import repro.workload.Workload

/** Chameleon* (paper §5.3): Chameleon [40] adapted with a buffer so it can
  * run on non-peak-provisioned hardware.
  *
  * Every `profileEverySegs` segments it re-profiles ALL candidate
  * configurations on the most recent segment (that work is charged as local
  * profiling overhead — the "large profiling overheads" §5.3 observes), then
  * until the next profiling window uses the cheapest configuration whose
  * profiled quality is within 10 % of the best profiled quality.
  *
  * Chameleon* is lag-agnostic: it never consults the buffer, so it can and
  * does overflow it — the run result's `overflows` field marks the
  * configurations the paper "only reports where it didn't crash".
  */
object ChameleonStar {

  final class ChameleonController(trace: SegmentTrace, start: Int, profileEverySegs: Int,
                                  cores: Int) extends Controller {
    private var current = start

    def choose(probe: Probe, segIdx: Int): Decision = {
      if (segIdx % profileEverySegs == 0 && segIdx > 0) {
        // Profile every candidate on the previous segment. Chameleon's
        // profiling only admits configs that approximately meet the frame
        // deadline on the provisioned hardware (2× real time — it exploits
        // the buffer but is not deliberately suicidal); it still lacks any
        // actual throughput guarantee and can overflow.
        val p = segIdx - 1
        val deadline = 2.0 * cores * trace.segSec
        val admissible = (0 until trace.nConfigs).filter(trace.cost(p, _) <= deadline)
        val extra = (0 until trace.nConfigs).map(trace.cost(p, _)).sum
        val quals = admissible.map(trace.qual(p, _))
        val best  = quals.max
        current = admissible
          .filter(k => trace.qual(p, k) >= 0.9 * best)
          .minBy(trace.cost(p, _))
        return Decision(current, Placement(0.0), extraLocalWork = extra)
      }
      Decision(current, Placement(0.0))
    }
  }

  def cheapestOverall(trace: SegmentTrace): Int =
    (0 until trace.nConfigs).minBy(k => Iterator.range(0, trace.nSegments).map(trace.cost(_, k)).sum)

  /** Simulate Chameleon* on `cores`, starting from the config cheapest on
    * `train` and profiling `test` as it runs. Default profiling period: 5
    * minutes.
    */
  def run(train: SegmentTrace, test: SegmentTrace, cores: Int, bufferBytes: Double,
          w: Workload, profileEverySec: Double = 300.0): RunResult = {
    val everySegs = math.max(1, (profileEverySec / test.segSec).toInt)
    val sim = new ClusterSim(test, cores, bufferBytes, 0.0,
      Machines.cloudPerCoreSec(), w.bitrateBytesPerSec, w.cloudBytesPerSec, w.uplinkBytesPerSec)
    sim.run(new ChameleonController(test, cheapestOverall(train), everySegs, cores))
  }
}
