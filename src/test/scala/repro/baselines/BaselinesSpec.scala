package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SegmentTrace
import repro.workload.{ConfigProfile, Covid, KnobConfig}

class BaselinesSpec extends AnyFunSuite {

  /** Trace with a diurnal difficulty cycle: configs are (cheap, mid, top). */
  private def mkTrace(n: Int = 2000, dt: Double = 2.0): SegmentTrace = {
    val costsPerSec = Array(0.5, 3.0, 12.0)
    val rhos = Array(0.2, 0.6, 0.97)
    val configs = costsPerSec.indices.map { k =>
      ConfigProfile(KnobConfig(k, Vector()), costsPerSec(k), rhos(k), Double.PositiveInfinity)
    }.toVector
    val diff = Array.tabulate(n)(i => 0.5 - 0.45 * math.cos(2 * math.Pi * i / n))
    val qual = Array.tabulate(n)(i => rhos.map(r => math.max(0.0, 1.0 - (1 - r) * diff(i))))
    SegmentTrace(dt,
      Array.fill(n)(0), diff,
      Array.fill(n)(1.0), configs, Array.fill(n)(1.0), qual.flatten,
      Array.tabulate(n)(_ => costsPerSec.map(_ * dt)))
  }

  /** costRows(i)(k): the cost cells of `t`, one row per segment. */
  private def costRows(t: SegmentTrace): Array[Array[Double]] =
    Array.tabulate(t.nSegments, t.nConfigs)(t.cost(_, _))

  // Any workload: every one streams 90 KB/s, ships 45 KB/s and has a 1.2 MB/s uplink.
  private val w = Covid
  private val bitrate = w.bitrateBytesPerSec

  test("static picks the most qualitative real-time config") {
    val t = mkTrace()
    assert(StaticBaseline.bestRealTimeConfig(t, cores = 4) == 1)  // 3 ≤ 4 < 12
    assert(StaticBaseline.bestRealTimeConfig(t, cores = 16) == 2)
    assert(StaticBaseline.bestRealTimeConfig(t, cores = 2) == 0)
  }

  test("static run never lags") {
    val t = mkTrace()
    val r = StaticBaseline.run(t, t, 4, 4e9, w)
    assert(r.overflows == 0)
    assert(r.maxLagSec <= t.segSec + 1e-9)
    assert(r.cloudDollars == 0.0)
    // Work and quality are the plain sums over the stream, bit for bit.
    val k = StaticBaseline.bestRealTimeConfig(t, 4)
    val segs = 0 until t.nSegments
    assert(r.workCoreSec == segs.map(t.cost(_, k)).sum &&
           r.qualityPct == segs.map(t.qual(_, k)).sum / t.maxTotalQuality)
  }

  test("static quality grows with machine size") {
    val t = mkTrace()
    val q4  = StaticBaseline.run(t, t, 4, 4e9, w).qualityPct
    val q16 = StaticBaseline.run(t, t, 16, 4e9, w).qualityPct
    assert(q16 > q4)
  }

  test("static fails when no config fits") {
    val t = mkTrace()
    intercept[IllegalArgumentException](StaticBaseline.bestRealTimeConfig(t, cores = 0))
  }

  test("Chameleon* pays profiling overhead") {
    val t = mkTrace()
    val r = ChameleonStar.run(t, t, 16, 4e9, w, profileEverySec = 60.0)
    val baseWork = costRows(t).map(_.min).sum // lower bound without profiling
    assert(r.workCoreSec > baseWork)
    // Profiling charges the sum of all configs every 30 segments.
    val profileEvents = t.nSegments / 30 - 1
    val profileWork = (0.5 + 3.0 + 12.0) * 2.0
    assert(r.workCoreSec >= profileEvents * profileWork)
  }

  test("Chameleon* adapts: cheap on easy content, expensive on hard") {
    val t = mkTrace()
    val r = ChameleonStar.run(t, t, 16, 4e9, w, profileEverySec = 60.0)
    val easy = (0 until 200).map(r.chosen(_)) // difficulty ≈ 0.05 at the start
    val hard = (t.nSegments / 2 - 100 until t.nSegments / 2 + 100).map(r.chosen(_))
    assert(easy.count(_ == 0) > easy.size / 2, s"easy=${easy.distinct}")
    assert(hard.map(t.configs(_).unitCost).sum / hard.size >
           easy.map(t.configs(_).unitCost).sum / easy.size)
  }

  test("Chameleon* on a small machine overflows (the crash the paper reports)") {
    val t = mkTrace()
    // 2 cores cannot run the configs Chameleon picks during hard content,
    // and Chameleon never checks the buffer.
    val r = ChameleonStar.run(t, t, 2, 50 * bitrate, w, profileEverySec = 60.0)
    assert(r.overflows > 0)
  }

  test("VideoStorm* runs top config until the buffer fills, then goes static") {
    val t = mkTrace(4000)
    val r = VideoStormStar.run(t, t, 4, 2000 * bitrate, w)
    assert(r.overflows == 0)
    assert(r.chosen.take(10).forall(_ == 2), "starts at the top config")
    // Once the buffer is full (~segment 500), it hovers at capacity and the
    // static fallback dominates. Sample mid-stream — near the stream's end
    // the arrival clamp relaxes buffer pressure, an end-of-run artifact.
    val mid = r.chosen.slice(1000, 2800)
    assert(mid.count(_ == 1) > mid.length / 2,
      s"fallback share=${mid.count(_ == 1).toDouble / mid.length}")
  }

  test("Optimum respects its work budget") {
    val t = mkTrace()
    val minWork = costRows(t).map(_.min).sum
    val budget = minWork * 3
    val a = Optimum.assign(t, budget)
    assert(a.workCoreSec <= budget + 1e-6)
    assert(a.chosen.length == t.nSegments)
  }

  test("Optimum dominates every static config at the same work") {
    val t = mkTrace()
    for (k <- 0 until t.nConfigs) {
      val work = costRows(t).map(_(k)).sum
      val a = Optimum.assign(t, work)
      val staticQ = (0 until t.nSegments).map(t.qual(_, k)).sum
      assert(a.totalQuality >= staticQ - 1e-6, s"k=$k")
    }
  }

  test("Optimum quality is monotone in budget and reaches 100% eventually") {
    val t = mkTrace()
    val minW = costRows(t).map(_.min).sum
    val maxW = costRows(t).map(_.max).sum
    val qs = Seq(1.0, 1.5, 2.5, 5.0, 25.0).map(f =>
      Optimum.assign(t, minW * f).qualityPct)
    qs.sliding(2).foreach { case Seq(a, b) => assert(b >= a - 1e-9); case _ => }
    assert(Optimum.assign(t, maxW).qualityPct > 0.999)
  }
}
