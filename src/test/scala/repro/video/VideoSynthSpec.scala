package repro.video

import repro.SparkSpec

/** The content law's properties, checked on the driver's segments; one test
  * checks the schema of the Spark view.
  */
class VideoSynthSpec extends SparkSpec {

  private val spec = StreamSpec(name = "test", days = 2, segSec = 4.0, seed = 3)

  /** Every segment of the stream `s`, in id order. */
  private def rows(s: StreamSpec): IndexedSeq[Segment] = {
    val law = new SynthLaw(s)
    Vector.tabulate(s.nSegments.toInt)(i => law(i.toLong))
  }

  private lazy val segs = rows(spec)

  private def mean(xs: Iterable[Double]): Double = xs.sum / xs.size

  test("segment count matches days / segSec") {
    assert(segs.length == 2L * 86400 / 4)
    assert(segs.map(_.segId) == (0L until segs.length.toLong))
  }

  test("the law's floor remainder equals Java's % bit for bit") {
    // Every segment id of 64 days at the workloads' segment lengths: the
    // hour of day and MOSEI's position in its 3-hour spike cycle.
    def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)
    var checked = 0L
    for (segSec <- Seq(2.0, 7.0); id <- 0L until 64L * 86400 / segSec.toLong) {
      val t = id.toDouble * segSec
      val x = t / 3600.0
      if (bits(SynthLaw.floorRem(x, 24.0)) != bits(x % 24.0) ||
          bits(SynthLaw.floorRem(t, 10800.0)) != bits(t % 10800.0))
        fail(s"segSec=$segSec id=$id: ${SynthLaw.floorRem(x, 24.0)} != ${x % 24.0} or " +
             s"${SynthLaw.floorRem(t, 10800.0)} != ${t % 10800.0}")
      checked += 1
    }
    assert(checked == 3554742L)
  }

  test("schema and value ranges") {
    // The schema on the Spark view; the ranges on the driver's segments.
    val df = VideoSynth.segments(spark, spec)
    assert(df.columns.toSeq == Seq("segId", "t", "day", "hour", "regime", "difficulty", "load"))
    assert(df.schema.map(_.dataType.typeName) ==
      Seq("long", "double", "integer", "double", "integer", "double", "double"))
    val bad = segs.count(s =>
      s.difficulty < 0 || s.difficulty > 1 ||
      s.hour < 0 || s.hour >= 24 ||
      s.regime < 0 || s.regime > 3 ||
      s.load != 1.0)
    assert(bad == 0)
  }

  test("generation is deterministic in the seed") {
    val a = rows(spec).map(_.difficulty).sum
    val b = rows(spec).map(_.difficulty).sum
    assert(a == b)
    val c = rows(spec.copy(seed = 99)).map(_.difficulty).sum
    assert(a != c)
  }

  test("diurnal pattern: daytime harder than night") {
    val day = mean(segs.filter(s => s.hour >= 10 && s.hour <= 16).map(_.difficulty))
    val night = mean(segs.filter(s => s.hour >= 0 && s.hour <= 4).map(_.difficulty))
    assert(day > night + 0.2, s"day=$day night=$night")
  }

  test("busy regimes are more frequent during the day") {
    def busyFrac(lo: Int, hi: Int): Double = {
      val in = segs.filter(s => s.hour >= lo && s.hour <= hi)
      in.count(_.regime >= 2).toDouble / in.length
    }
    assert(busyFrac(10, 16) > busyFrac(0, 4) + 0.2)
  }

  test("regimes dwell for ~dwellSec, not per-segment") {
    val regimes = segs.take(5000).map(_.regime)
    val changes = regimes.sliding(2).count { case Seq(a, b) => a != b }
    // 5000 segments of 4 s = 20000 s; dwell 40 s → ≈ 500 block boundaries.
    assert(changes < 1200, s"changes=$changes")
    assert(changes > 50, s"changes=$changes")
  }

  test("day amplitudes are deterministic, bounded, and weekend-damped") {
    val longSpec = spec.copy(days = 14)
    val a = VideoSynth.dayAmplitudes(longSpec)
    val b = VideoSynth.dayAmplitudes(longSpec)
    assert(a.sameElements(b))
    assert(a.forall(v => v > 0.3 && v < 1.5))
    // Weekend days (5, 6 mod 7) carry the damping factor.
    val weekdayMean = a.indices.filter(d => d % 7 < 5).map(a(_)).sum /
      a.indices.count(_ % 7 < 5)
    val weekendMean = a.indices.filter(d => d % 7 >= 5).map(a(_)).sum /
      a.indices.count(_ % 7 >= 5)
    assert(weekendMean < weekdayMean)
  }

  test("MOSEI-HIGH load spikes reach the cap and are short") {
    val ls = LoadSpec(spikeHigh = true)
    val high = rows(spec.copy(loadSpec = Some(ls)))
    val atCap = high.count(_.load == 62.0)
    val total = high.length
    assert(atCap > 0)
    assert(atCap.toDouble / total < 0.10, s"cap fraction ${atCap.toDouble / total}")
    val inWindow = high.count(s => s.t % 10800.0 < 420 && s.load == 62.0)
    assert(inWindow == atCap, "spikes only inside the periodic windows")
  }

  test("MOSEI-LONG plateau raises load for its whole window") {
    val ls = LoadSpec(spikeLongFromSec = 3600, spikeLongToSec = 3600 + 8 * 3600)
    val long = rows(spec.copy(loadSpec = Some(ls)))
    val in  = mean(long.filter(s => s.t >= 3600 && s.t < 3600 + 8 * 3600).map(_.load))
    val out = mean(long.filter(s => s.t >= 12 * 3600 && s.t < 20 * 3600).map(_.load))
    assert(in > out + 15, s"in=$in out=$out")
  }

  test("load is always within [1, maxStreams]") {
    val ls = LoadSpec(spikeHigh = true)
    assert(rows(spec.copy(loadSpec = Some(ls))).count(s => s.load < 1 || s.load > 62) == 0)
  }
}
