package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SegmentTrace
import repro.workload.{ConfigProfile, KnobConfig}

/** Buffer byte accounting under varying load: buffered video is priced at
  * capture-time load, so a backlog of quiet-period video does not balloon
  * the moment a high-load spike arrives.
  */
class ByteAccountingSpec extends AnyFunSuite {

  /** Trace with independent per-segment loads and work costs. */
  private def mkTrace(loads: Array[Double], costs: Array[Double],
                      dt: Double): SegmentTrace = {
    val n = loads.length
    val configs = Vector(
      ConfigProfile(KnobConfig(0, Vector()), 1.0, 0.5, Double.PositiveInfinity))
    SegmentTrace(dt,
      Array.fill(n)(0), Array.fill(n)(0.5), loads, configs,
      Array.fill(n)(1.0), Array.fill(n)(0.5),
      costs.map(c => Array(c)))
  }

  private val bitrate = 100e3
  private val dt = 2.0

  private def sim(t: SegmentTrace, cores: Int, bufBytes: Double) =
    new ClusterSim(t, cores, bufBytes, 0.0, Machines.cloudPerCoreSec(),
                   bitrate, 45e3, 1.2e6)

  private val allLocal = new Controller {
    def choose(probe: Probe, segIdx: Int) = Decision(0, Placement(0.0))
  }

  test("constant load: buffered bytes equal lag × bitrate × load") {
    val t = mkTrace(Array.fill(200)(10.0), Array.fill(200)(8.0), dt) // 2× overload on 4 cores? 8 core·s/seg
    val r = sim(t, cores = 2, bufBytes = 1e12).run(allLocal)
    assert(r.maxLagSec > 100)
    assert(math.abs(r.maxBufferBytes - r.maxLagSec * bitrate * 10.0) < bitrate * 10 * 2.5,
      s"bytes=${r.maxBufferBytes} lag=${r.maxLagSec}")
  }

  test("quiet-period backlog is not repriced at spike load") {
    // 100 quiet segments (load 1) at 2× overload build a ~200 s backlog;
    // a short 5-segment load-50 spike follows, then quiet again. When the
    // first spike segment is processed, the buffer holds ~70 MB of video
    // (remaining quiet footage plus the short spike); current-load pricing
    // would have reported 200 s × 50 streams ≈ 1 GB.
    val loads = Array.fill(100)(1.0) ++ Array.fill(5)(50.0) ++ Array.fill(95)(1.0)
    val costs = Array.fill(100)(4.0) ++ Array.fill(100)(0.5)
    val t = mkTrace(loads, costs, dt)
    var atSpike = -1.0
    val probeCtrl = new Controller {
      def choose(probe: Probe, segIdx: Int) = {
        if (segIdx == 100) atSpike = probe.bufferBytes
        Decision(0, Placement(0.0))
      }
    }
    val r = sim(t, cores = 1, bufBytes = 1e12).run(probeCtrl)
    assert(atSpike > 0)
    assert(atSpike < 2e8, s"buffered at spike head = $atSpike (phantom repricing?)")
    assert(r.overflows == 0)
  }

  test("real-time processing buffers exactly the in-capture segment") {
    val loads = Array.tabulate(50)(i => 1.0 + (i % 5))
    val t = mkTrace(loads, Array.fill(50)(0.4), dt)
    var checked = 0
    sim(t, cores = 4, bufBytes = 1e12).run(new Controller {
      def choose(probe: Probe, segIdx: Int) = {
        val expected = loads(segIdx) * bitrate * dt
        assert(math.abs(probe.bufferBytes - expected) < 1.0,
          s"seg=$segIdx got=${probe.bufferBytes} expected=$expected")
        checked += 1
        Decision(0, Placement(0.0))
      }
    })
    assert(checked == 50)
  }

  test("overflow detection uses capture-time pricing") {
    val t = mkTrace(Array.fill(300)(1.0), Array.fill(300)(12.0), dt)
    val r = sim(t, cores = 4, bufBytes = 50 * bitrate).run(allLocal)
    assert(r.overflows > 0)
  }

  test("feasibility probe agrees with post-decision accounting") {
    val loads = Array.fill(60)(3.0)
    val t = mkTrace(loads, Array.fill(60)(6.0), dt)
    val cap = 120 * bitrate
    var vetoed = 0
    val ctrl = new Controller {
      def choose(probe: Probe, segIdx: Int) = {
        if (!probe.feasible(0, Placement(0.0))) vetoed += 1
        Decision(0, Placement(0.0))
      }
    }
    val r = sim(t, cores = 1, bufBytes = cap).run(ctrl)
    // Every overflow the simulator records was predicted by the probe.
    assert(r.overflows <= vetoed, s"overflows=${r.overflows} vetoed=$vetoed")
    assert(r.overflows > 0, "scenario must actually overflow")
  }
}
