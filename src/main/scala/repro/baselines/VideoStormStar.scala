package repro.baselines

import repro.core.SegmentTrace
import repro.sim._
import repro.workload.Workload

/** VideoStorm* (paper Appendix G): a query-load-adaptive tuner is agnostic
  * to content, so on a static V-ETL job it runs the most qualitative
  * configuration until the buffer fills, then degrades to the best
  * configuration that runs in real time — from then on it behaves exactly
  * like the static baseline.
  */
object VideoStormStar {

  final class VideoStormController(trace: SegmentTrace, cores: Int) extends Controller {
    private val best = (0 until trace.nConfigs).maxBy(StaticBaseline.meanQuality(trace, _))
    private val fallback = StaticBaseline.bestRealTimeConfig(trace, cores)

    def choose(probe: Probe, segIdx: Int): Decision =
      if (probe.feasible(best, Placement(0.0))) Decision(best, Placement(0.0))
      else Decision(fallback, Placement(0.0))
  }

  def run(trace: SegmentTrace, cores: Int, bufferBytes: Double, w: Workload): RunResult = {
    val sim = new ClusterSim(trace, cores, bufferBytes, 0.0,
      Machines.cloudPerCoreSec(), w.bitrateBytesPerSec, w.cloudBytesPerSec, w.uplinkBytesPerSec)
    sim.run(new VideoStormController(trace, cores))
  }
}
