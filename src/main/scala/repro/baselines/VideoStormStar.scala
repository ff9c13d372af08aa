package repro.baselines

import repro.core.SegmentTrace
import repro.sim._
import repro.workload.Workload

/** VideoStorm* (paper Appendix G): a query-load-adaptive tuner is agnostic
  * to content, so on a static V-ETL job it runs the most qualitative
  * configuration until the buffer fills, then degrades to the best
  * configuration that runs in real time — from then on it behaves exactly
  * like the static baseline. Both configurations are picked on the
  * training trace.
  */
object VideoStormStar {

  final class VideoStormController(train: SegmentTrace, cores: Int) extends Controller {
    private val best = (0 until train.nConfigs).maxBy(StaticBaseline.meanQuality(train, _))
    private val fallback = StaticBaseline.bestRealTimeConfig(train, cores)

    def choose(probe: Probe, segIdx: Int): Decision =
      if (probe.feasible(best, Placement(0.0))) Decision(best, Placement(0.0))
      else Decision(fallback, Placement(0.0))
  }

  def run(train: SegmentTrace, test: SegmentTrace, cores: Int, bufferBytes: Double,
          w: Workload): RunResult = {
    val sim = new ClusterSim(test, cores, bufferBytes, 0.0,
      Machines.cloudPerCoreSec(), w.bitrateBytesPerSec, w.cloudBytesPerSec, w.uplinkBytesPerSec)
    sim.run(new VideoStormController(train, cores))
  }
}
