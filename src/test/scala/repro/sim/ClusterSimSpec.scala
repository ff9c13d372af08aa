package repro.sim

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{ContentCategories, KnobPlan, KnobSwitcher, SegmentTrace}
import repro.workload.{ConfigProfile, KnobConfig}

class ClusterSimSpec extends AnyFunSuite {

  /** Hand-built trace: n segments of dt seconds, uniform quality/cost. */
  private def mkTrace(n: Int, dt: Double, costsPerSec: Array[Double],
                      quals: Array[Double], load: Double = 1.0): SegmentTrace = {
    val configs = costsPerSec.indices.map { k =>
      ConfigProfile(KnobConfig(k, Vector()), costsPerSec(k), quals(k), Double.PositiveInfinity)
    }.toVector
    SegmentTrace(dt,
      Array.fill(n)(0), Array.fill(n)(0.5), Array.fill(n)(load),
      configs,
      Array.fill(n)(1.0),
      Array.fill(n)(quals).flatten,
      Array.tabulate(n)(_ => costsPerSec.map(_ * dt * load)))
  }

  private def static(k: Int): Controller = new Controller {
    def choose(probe: Probe, segIdx: Int) = Decision(k, Placement(0.0))
  }

  private def sim(trace: SegmentTrace, cores: Int, bufBytes: Double = 4e9,
                  cloudBudget: Double = 0.0, uplink: Double = 1.2e6) =
    new ClusterSim(trace, cores, bufBytes, cloudBudget, Machines.cloudPerCoreSec(),
                   90e3, 45e3, uplink)

  test("real-time config keeps the buffer empty") {
    val t = mkTrace(500, 2.0, Array(1.0, 8.0), Array(0.5, 0.9))
    val r = sim(t, cores = 4).run(static(0)) // 1 core·s/s on 4 cores
    assert(r.overflows == 0)
    assert(r.lagSecEnd == 0.0)
    assert(r.maxBufferBytes <= 2 * 2.0 * 90e3) // at most one in-flight segment
  }

  test("over-capacity config accumulates lag linearly") {
    val t = mkTrace(1000, 2.0, Array(8.0), Array(0.9))
    val r = sim(t, cores = 4, bufBytes = 1e12).run(static(0)) // 2x capacity
    // Each 2 s segment takes 4 s to process → lag peaks near half the stream.
    assert(r.maxLagSec > 900, s"maxLag=${r.maxLagSec}")
    assert(r.maxBufferBytes > 900 * 90e3)
  }

  test("buffer overflow is detected when capacity is exceeded") {
    val t = mkTrace(1000, 2.0, Array(8.0), Array(0.9))
    val r = sim(t, cores = 4, bufBytes = 100 * 90e3).run(static(0))
    assert(r.overflows > 0)
  }

  test("work accounting equals sum of chosen configs' costs") {
    val t = mkTrace(300, 2.0, Array(1.0, 3.0), Array(0.5, 0.9))
    val r = sim(t, cores = 8).run(static(1))
    assert(math.abs(r.workCoreSec - 300 * 3.0 * 2.0) < 1e-6)
  }

  test("quality accounting sums per-segment qualities and normalizes") {
    val t = mkTrace(100, 2.0, Array(1.0, 3.0), Array(0.5, 0.9))
    val r = sim(t, cores = 8).run(static(0))
    assert(math.abs(r.totalQuality - 50.0) < 1e-9)
    assert(math.abs(r.qualityPct - 0.5 / 0.9) < 1e-9)
  }

  test("cloud offload charges dollars and reduces local time") {
    val t = mkTrace(500, 2.0, Array(8.0), Array(0.9))
    val full = new Controller {
      def choose(probe: Probe, segIdx: Int) = Decision(0, Placement(0.5))
    }
    val r = sim(t, cores = 4, cloudBudget = 1e9).run(full)
    // Half the work offloaded: local 8 core·s per segment on 4 cores = 2 s =
    // real time → no lag.
    assert(r.lagSecEnd < 1e-6, s"lag=${r.lagSecEnd}")
    val expected = 500 * 8.0 * 2.0 * 0.5 * Machines.cloudPerCoreSec()
    assert(math.abs(r.cloudDollars - expected) < 1e-9)
  }

  test("upload bandwidth bounds offloading speed") {
    // 62 streams: upload of a 2 s segment at f=1 is 62·45 KB/s·2 s = 5.6 MB;
    // at 1.2 MB/s uplink that is 4.65 s ≫ 2 s real time → lag grows even
    // with full offload.
    val t = mkTrace(200, 2.0, Array(8.0), Array(0.9), load = 62.0)
    val full = new Controller {
      def choose(probe: Probe, segIdx: Int) = Decision(0, Placement(1.0))
    }
    val r = sim(t, cores = 4, bufBytes = 1e14, cloudBudget = 1e9).run(full)
    assert(r.maxLagSec > 200, s"maxLag=${r.maxLagSec}")
  }

  test("probe feasibility matches simulated outcome") {
    val t = mkTrace(50, 2.0, Array(1.0, 100.0), Array(0.5, 0.9))
    var sawInfeasible = false
    val ctrl = new Controller {
      def choose(probe: Probe, segIdx: Int) = {
        if (!probe.feasible(1, Placement(0.0))) sawInfeasible = true
        assert(probe.feasible(0, Placement(0.0)))
        Decision(0, Placement(0.0))
      }
    }
    val r = sim(t, cores = 4, bufBytes = 10 * 90e3).run(ctrl)
    assert(sawInfeasible) // 100 core·s/s never fits 4 cores + 10 s buffer
    assert(r.overflows == 0)
  }

  test("the switcher's last resort keeps a $0 budget and the overflows are counted") {
    // The cheapest config needs 8 core·s per video second, twice what 4
    // cores give, so once the 10 s buffer fills no decision is feasible.
    // At $0 the last resort must stay all-local, and the buffer overflows.
    val quals = Array(0.5, 0.9)
    val t = mkTrace(200, 2.0, Array(8.0, 16.0), quals)
    val sw = new KnobSwitcher(ContentCategories(Array(quals.clone()), 0),
                              Array(quals), Placement.grid)
    sw.setPlan(KnobPlan(Array(Array(1.0, 0.0))))
    val ctrl = new Controller {
      def choose(probe: Probe, segIdx: Int) = sw.choose(probe)
      override def observe(segIdx: Int, cfgIdx: Int, qual: Double, report: Double): Unit =
        sw.observe(cfgIdx, report)
    }
    val r = sim(t, cores = 4, bufBytes = 10 * 90e3).run(ctrl)
    assert(r.cloudDollars <= 0.0, s"spent ${r.cloudDollars} of a $$0 budget")
    assert(r.overflows > 0)
    assert(r.chosen.forall(_ == 0))
  }

  test("probe cloud budget is enforced via cloudRemaining") {
    val t = mkTrace(100, 2.0, Array(8.0), Array(0.9))
    val budget = 100 * 8.0 * 2.0 * 0.25 * Machines.cloudPerCoreSec() // ¼ of full offload
    var denials = 0
    val ctrl = new Controller {
      def choose(probe: Probe, segIdx: Int) = {
        val p = Placement(1.0)
        if (probe.feasible(0, p) && probe.cloudCost(0, p) <= probe.cloudRemaining)
          Decision(0, p)
        else { denials += 1; Decision(0, Placement(0.0)) }
      }
    }
    val r = sim(t, cores = 4, cloudBudget = budget).run(ctrl)
    assert(r.cloudDollars <= budget + 1e-12)
    assert(denials > 0)
  }

  test("catch-up: lag drains when cheap configs follow expensive ones") {
    val t = mkTrace(1000, 2.0, Array(0.5, 8.0), Array(0.5, 0.9))
    val ctrl = new Controller {
      def choose(probe: Probe, segIdx: Int) =
        Decision(if (segIdx < 200) 1 else 0, Placement(0.0))
    }
    val r = sim(t, cores = 4, bufBytes = 1e12).run(ctrl)
    assert(r.lagSecEnd < 1e-6, s"lag=${r.lagSecEnd}")
    assert(r.maxBufferBytes > 100 * 90e3) // but it did buffer meanwhile
  }

  test("Chameleon-style extra work is charged locally") {
    val t = mkTrace(100, 2.0, Array(1.0), Array(0.5))
    val ctrl = new Controller {
      def choose(probe: Probe, segIdx: Int) =
        Decision(0, Placement(0.0), extraLocalWork = 6.0)
    }
    val r = sim(t, cores = 4).run(ctrl)
    assert(math.abs(r.workCoreSec - 100 * (2.0 + 6.0)) < 1e-9)
    // 2 core·s base + 6 extra = 8 core·s per 2 s segment on 4 cores = 2 s —
    // exactly real time, no lag.
    assert(r.lagSecEnd < 1e-6)
  }
}
