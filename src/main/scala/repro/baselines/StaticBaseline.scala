package repro.baselines

import repro.core.SegmentTrace
import repro.sim._
import repro.workload.Workload

/** Static baseline (paper §5.3): one knob configuration for the entire
  * stream — the most qualitative one that runs in real time on the
  * provisioned machine at all times (including peak load).
  */
object StaticBaseline {

  /** Index of the best static config feasible in real time on `cores`:
    * peak per-video-second work must fit the machine.
    */
  def bestRealTimeConfig(trace: SegmentTrace, cores: Int): Int = {
    val n = trace.nSegments
    val feasible = (0 until trace.nConfigs).filter { k =>
      var peak = 0.0
      var i = 0
      while (i < n) { if (trace.cost(i, k) > peak) peak = trace.cost(i, k); i += 1 }
      peak <= cores * trace.segSec + 1e-9
    }
    require(feasible.nonEmpty, s"no config runs in real time on $cores cores")
    feasible.maxBy(k => meanQuality(trace, k))
  }

  def meanQuality(trace: SegmentTrace, k: Int): Double = {
    var s = 0.0
    var i = 0
    while (i < trace.nSegments) { s += trace.qual(i, k); i += 1 }
    s / trace.nSegments
  }

  final class StaticController(k: Int) extends Controller {
    def choose(probe: Probe, segIdx: Int): Decision = Decision(k, Placement(0.0))
  }

  /** Simulate the static baseline on `cores`. */
  def run(trace: SegmentTrace, cores: Int, bufferBytes: Double, w: Workload): RunResult = {
    val k = bestRealTimeConfig(trace, cores)
    val sim = new ClusterSim(trace, cores, bufferBytes, 0.0,
      Machines.cloudPerCoreSec(), w.bitrateBytesPerSec, w.cloudBytesPerSec, w.uplinkBytesPerSec)
    sim.run(new StaticController(k))
  }
}
