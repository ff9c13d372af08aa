package repro.workload

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{QualityMatrix, Pareto, Skyscraper, Hyper, ForecastSpec}
import repro.baselines.StaticBaseline

/** MOSEI-specific behaviour: multi-stream load, coverage-driven quality,
  * and the HIGH/LONG spike structures the §5.4 ablation depends on.
  */
class MoseiSpec extends SparkSpec {

  test("HIGH and LONG share the diurnal base but differ in spikes") {
    val high = MoseiHigh.stream(spark, 2)
    val long = MoseiLong.stream(spark, 2)
    val hCap = high.where(col("load") >= 62.0).count()
    val lCap = long.where(col("load") >= 62.0).count()
    assert(hCap > 0, "HIGH must hit the 62-stream cap")
    assert(lCap == 0, "LONG has no full-cap spikes")
  }

  test("LONG's plateau sits in the test portion of the stream") {
    val days = MoseiLong.trainDays + MoseiLong.testDays
    val df = MoseiLong.stream(spark, days)
    val testStart = MoseiLong.trainDays * 86400.0
    val trainMax = df.where(col("t") < testStart).agg(max("load")).collect()(0).getDouble(0)
    val testMax  = df.where(col("t") >= testStart).agg(max("load")).collect()(0).getDouble(0)
    assert(testMax > trainMax + 10, s"train=$trainMax test=$testMax")
  }

  test("accuracy spread is wide: cheap full-coverage configs are poor") {
    val w = MoseiHigh
    // Cheapest cap-62 config vs the most robust cap-62 config.
    val full = w.profiles.filter(_.streamCap == 62.0)
    val cheap = full.minBy(_.unitCost)
    val top   = full.maxBy(_.rho)
    val qCheap = w.quality(cheap, 1, 0.3, 20.0)
    val qTop   = w.quality(top, 1, 0.3, 20.0)
    assert(qCheap / qTop < 0.45, s"cheap=$qCheap top=$qTop")
  }

  test("filtered K spans stream caps, not just accuracy levels") {
    val pre = Skyscraper.preSample(spark, MoseiHigh, 2, 600, 7)
    val k = Pareto.filterConfigs(MoseiHigh, pre, maxK = 10)
    val caps = k.map(_.streamCap).distinct
    assert(caps.length >= 2, s"caps=$caps")
    assert(caps.contains(62.0), "must keep a full-coverage config")
  }

  test("static baseline quality rises with machine size on MOSEI") {
    val pre = Skyscraper.preSample(spark, MoseiHigh, 2, 600, 7)
    val k = Pareto.filterConfigs(MoseiHigh, pre, maxK = 10)
    val t = QualityMatrix.trace(spark, MoseiHigh, 2, k)
    val q4  = StaticBaseline.run(t, 4, 4e9, MoseiHigh).qualityPct
    val q60 = StaticBaseline.run(t, 60, 4e9, MoseiHigh).qualityPct
    assert(q60 > q4 + 0.1, s"q4=$q4 q60=$q60")
  }

  test("end-to-end: Skyscraper never overflows on MOSEI spikes") {
    val hyper = Hyper(nCategories = 4,
      forecast = ForecastSpec(inputDays = 0.5, nSplits = 4, horizonDays = 0.5,
                              sampleEveryMin = 30),
      preSampleSize = 500, categorySampleFrac = 0.10)
    val (model, _, test) =
      Skyscraper.fitAndTrace(MoseiHigh, hyper, trainDays = 2, testDays = 1)
    for (cores <- Seq(8, 32)) {
      val r = Skyscraper.run(model, test, cores, 4e9, 1.0)
      assert(r.overflows == 0, s"cores=$cores overflows=${r.overflows}")
      assert(r.cloudDollars <= 1.0 + 1e-9)
    }
  }

  test("MOSEI knob grid: frequency knob maps skip-count to analysis rate") {
    val w = MoseiHigh
    val noSkip = w.allConfigs.find(c => c.values == Vector(0.0, 1.0, 2.0, 62.0)).get
    val skip6  = w.allConfigs.find(c => c.values == Vector(6.0, 1.0, 2.0, 62.0)).get
    assert(math.abs(w.unitCost(noSkip) / w.unitCost(skip6) - 7.0) < 1e-9)
    assert(w.robustness(noSkip) > w.robustness(skip6))
  }
}
