package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.workload.{Covid, MoseiHigh, MoseiLong, Mot, Workload}

class QualityMatrixSpec extends SparkSpec {

  private lazy val configs = Covid.profiles.sortBy(_.unitCost).grouped(8).map(_.head).toVector
  private lazy val trace = QualityMatrix.trace(spark, Covid, 1, configs)

  test("trace dimensions") {
    assert(trace.nSegments == 86400 / 2)
    assert(trace.nConfigs == configs.length)
    assert(trace.qual.length == trace.nSegments)
    assert(trace.cost.length == trace.nSegments)
  }

  /** Every (segment, config) cell of all three channels equals the scalar
    * model exactly, with the segment's own regime selecting ρ·affinity.
    */
  private def assertMatchesScalar(w: Workload, t: SegmentTrace): Unit = {
    def same(got: Double, exp: Double, what: => String): Unit =
      if (got != exp) fail(s"${w.name} $what: $got != $exp")
    for (i <- 0 until t.nSegments; k <- t.configs.indices) {
      val p = t.configs(k)
      val (d, l, r) = (t.difficulty(i), t.load(i), t.regime(i))
      same(t.qual(i)(k), w.quality(p, i.toLong, d, l, r), s"qual seg=$i k=$k")
      same(t.cost(i)(k), w.costPerSec(p, l) * w.segSec, s"cost seg=$i k=$k")
      same(t.report(i)(k), w.reported(p, i.toLong, d, l, r), s"report seg=$i k=$k")
    }
  }

  test("trace values match the scalar workload model") {
    assert(trace.regime.distinct.length == Covid.NRegimes)
    assertMatchesScalar(Covid, trace)
    val motCfgs = Mot.profiles.sortBy(_.unitCost).grouped(8).map(_.head).toVector
    val mot = QualityMatrix.trace(spark, Mot, 1, motCfgs)
    assert(mot.regime.distinct.length == Mot.NRegimes)
    assertMatchesScalar(Mot, mot)
  }

  test("columns follow the order configs are passed in") {
    val rev = QualityMatrix.trace(spark, Covid, 1, configs.reverse)
    assert(rev.configs == configs.reverse)
    def reversed(m: Array[Array[Double]]) = m.map(_.reverse.toSeq).toSeq
    assert(rev.qual.map(_.toSeq).toSeq == reversed(trace.qual))
    assert(rev.cost.map(_.toSeq).toSeq == reversed(trace.cost))
    assert(rev.report.map(_.toSeq).toSeq == reversed(trace.report))
  }

  test("a stream whose segment ids are not dense fails loudly") {
    val gappy = new Covid {
      override def stream(spark: SparkSession, days: Int, seed: Long): DataFrame =
        super.stream(spark, days, seed).where(col("segId") =!= 5L)
    }
    val e = intercept[IllegalArgumentException](QualityMatrix.trace(spark, gappy, 1, configs.take(1)))
    assert(e.getMessage.contains("segment ids must be exactly 0 until"))
  }

  test("a stream with a repeated segment id fails loudly") {
    val repeated = new Covid {
      override def stream(spark: SparkSession, days: Int, seed: Long): DataFrame = {
        val s = super.stream(spark, days, seed)
        s.union(s.where(col("segId") === 5L))
      }
    }
    val e = intercept[IllegalArgumentException](QualityMatrix.trace(spark, repeated, 1, configs.take(1)))
    assert(e.getMessage.contains("segment ids must be exactly 0 until"))
    assert(e.getMessage.endsWith("got 5"))
  }

  /** Consecutive cost rows share one array exactly when they are bit-identical. */
  private def assertCostRowsShared(t: SegmentTrace): Unit =
    for (i <- 1 until t.nSegments) {
      val same = java.util.Arrays.equals(t.cost(i), t.cost(i - 1))
      assert((t.cost(i) eq t.cost(i - 1)) == same, s"seg=$i equal=$same")
    }

  test("a single stream's cost rows are one shared array, also after slice") {
    assert(trace.load.forall(_ == 1.0))
    assert(trace.cost.forall(_ eq trace.cost(0)))
    val s = trace.slice(100, 200)
    assert(s.cost.forall(_ eq trace.cost(0)))
    assert(trace.qual(1) ne trace.qual(0))
    assert(trace.report(1) ne trace.report(0))
  }

  test("day index is ordered and dayStart finds boundaries") {
    assert(trace.day.head == 0)
    assert(trace.dayStart(0) == 0)
    val t2 = QualityMatrix.trace(spark, Covid, 2, configs.take(2))
    assert(t2.dayStart(1) == 86400 / 2)
    assert(t2.day(t2.dayStart(1)) == 1)
    assert(t2.day(t2.dayStart(1) - 1) == 0)
  }

  test("slice preserves alignment") {
    val s = trace.slice(100, 200)
    assert(s.nSegments == 100)
    assert(s.difficulty(0) == trace.difficulty(100))
    assert(s.qual(5)(0) == trace.qual(105)(0))
    assert(s.configs == trace.configs)
  }

  test("maxTotalQuality is an upper bound on any config's total") {
    for (k <- configs.indices) {
      val tot = trace.qual.map(_(k)).sum
      assert(tot <= trace.maxTotalQuality + 1e-9)
    }
    assert(trace.maxTotalQuality > 0)
  }

  test("MOSEI trace carries varying load and load-scaled costs") {
    val cfgs = MoseiHigh.profiles.filter(p => p.streamCap == 16.0).sortBy(_.unitCost)
      .grouped(10).map(_.head).toVector
    val t = QualityMatrix.trace(spark, MoseiHigh, 1, cfgs)
    assert(t.load.distinct.length > 3)
    val i = t.load.indexWhere(_ > 20)
    assert(i >= 0)
    assert(math.abs(t.cost(i)(0) - cfgs(0).unitCost * 16.0 * MoseiHigh.segSec) < 1e-9)
    assertMatchesScalar(MoseiHigh, t)
    assertCostRowsShared(t)
    val shared = (1 until t.nSegments).count(j => t.cost(j) eq t.cost(j - 1))
    info(f"MOSEI-HIGH: $shared of ${t.nSegments} segments share the previous cost row " +
      f"(${100.0 * shared / t.nSegments}%.1f%%)")
  }

  test("MOSEI traces reproduce the pinned digests") {
    // Load != 1 and coverage < 1, which the COVID/MOT digests in
    // SkyscraperSpec never reach; an intended behaviour change updates these.
    val pinned = Map("MOSEI-HIGH" -> "c3590020d7391e20", "MOSEI-LONG" -> "c328c0018f823a1d")
    val got = Seq[Workload](MoseiHigh, MoseiLong).map { w =>
      val cfgs = w.profiles.sortBy(_.unitCost).grouped(w.profiles.length / 12).map(_.head).toVector
      val t = QualityMatrix.trace(spark, w, 2, cfgs, seed = 7)
      assert(t.load.max > cfgs.map(_.streamCap).min, s"${w.name}: no cell with coverage < 1")
      val d = new SkyscraperSpec.Digest
      cfgs.foreach(p => d.long(p.id.toLong))
      d.ints(t.day); d.ints(t.regime); d.doubles(t.difficulty); d.doubles(t.load)
      for (ch <- Seq(t.qual, t.cost, t.report)) ch.foreach(d.doubles)
      w.name -> d.hex
    }.toMap
    assert(got == pinned)
  }
}
