package repro.core

import org.scalatest.funsuite.AnyFunSuite

class ForecasterSpec extends AnyFunSuite {

  // Small-scale spec: 4 h of input split into 4 chunks, 2 h horizon, segSec 60.
  private val spec = ForecastSpec(inputDays = 4.0 / 24, nSplits = 4,
                                  horizonDays = 2.0 / 24, sampleEveryMin = 30)

  /** Synthetic category stream with a diurnal frequency pattern. */
  private def diurnalCats(days: Int, segSec: Double, nCats: Int, seed: Long): Array[Int] = {
    val n = (days * 86400 / segSec).toInt
    val rng = new scala.util.Random(seed)
    Array.tabulate(n) { i =>
      val hour = (i * segSec / 3600.0) % 24
      val pBusy = if (hour > 8 && hour < 18) 0.7 else 0.1
      if (rng.nextDouble() < pBusy) (nCats - 1) else rng.nextInt(nCats - 1)
    }
  }

  test("histogram sums to 1 and counts correctly") {
    val f = new Forecaster(spec, 3, 60)
    val h = f.histogram(Array(0, 0, 1, 2, 2, 2), 0, 6)
    assert(math.abs(h.sum - 1.0) < 1e-12)
    assert(math.abs(h(0) - 2.0 / 6) < 1e-12)
    assert(math.abs(h(2) - 3.0 / 6) < 1e-12)
  }

  test("histogram of empty range is all zeros") {
    val f = new Forecaster(spec, 3, 60)
    assert(f.histogram(Array(0, 1, 2), 2, 2).forall(_ == 0.0))
  }

  test("features concatenate nSplits histograms") {
    val f = new Forecaster(spec, 2, 60)
    val cats = Array.fill(1000)(0)
    val x = f.features(cats, 500)
    assert(x.length == spec.nSplits * 2)
    // All mass on category 0 in every chunk.
    for (s <- 0 until spec.nSplits) assert(math.abs(x(s * 2) - 1.0) < 1e-12)
  }

  test("windows stride matches sampleEveryMin") {
    val f = new Forecaster(spec, 2, 60)
    val cats = diurnalCats(1, 60, 2, 1)
    val ws = f.windows(cats)
    assert(ws.nonEmpty)
    // one window per 30 min over the usable range
    val usable = cats.length - (4 + 2) * 60 // input + horizon segments
    assert(math.abs(ws.size - usable / 30.0) < 3)
  }

  test("prediction is a probability distribution") {
    val f = new Forecaster(spec, 3, 60)
    val cats = diurnalCats(2, 60, 3, 2)
    f.fit(cats, epochs = 3)
    val p = f.predict(cats, cats.length)
    assert(math.abs(p.sum - 1.0) < 1e-9)
    assert(p.forall(_ >= 0))
  }

  test("trained forecaster beats the uniform predictor on diurnal content") {
    val nCats = 3
    val train = diurnalCats(4, 60, nCats, seed = 3)
    val test  = diurnalCats(2, 60, nCats, seed = 4)
    val f = new Forecaster(spec, nCats, 60)
    f.fit(train)
    val mae = f.maeRange(test, 0, test.length)
    // Uniform predictor's MAE on the same windows.
    val ws = f.windows(test)
    val uniformMae = ws.map { case (_, y) =>
      y.map(v => math.abs(v - 1.0 / nCats)).sum / nCats
    }.sum / ws.size
    assert(mae < uniformMae, s"mae=$mae uniform=$uniformMae")
  }

  test("with too few windows, predict falls back to the persistence forecast") {
    val f = new Forecaster(spec, 3, 60, seed = 1)
    val cats = Array.fill(500)(0) ++ Array.fill(100)(1) // too short to window
    f.fit(cats.take(450)) // fewer than 20 windows
    val p = f.predict(cats, 600)
    // Persistence forecast = mean input histogram. The 4 h input window is
    // 240 segments: 140 of category 0, 100 of category 1, none of 2.
    assert(math.abs(p.sum - 1.0) < 1e-9)
    assert(p(0) > p(2), p.toList.toString)
    assert(p(1) > 0.2, p.toList.toString)
  }

  test("maeRange returns NaN when no window fits") {
    val f = new Forecaster(spec, 3, 60)
    val cats = Array.fill(100)(0)
    assert(f.maeRange(cats, 90, 100).isNaN)
  }

  test("trained forecaster is competitive with the last-window predictor") {
    val nCats = 3
    val train = diurnalCats(4, 60, nCats, seed = 3)
    val test  = diurnalCats(2, 60, nCats, seed = 4)
    val f = new Forecaster(spec, nCats, 60)
    f.fit(train)
    val mae = f.maeRange(test, 0, test.length)
    // An untrained forecaster predicts the persistence forecast.
    val naive = new Forecaster(spec, nCats, 60).maeRange(test, 0, test.length)
    assert(mae < naive * 1.5, s"mae=$mae naive=$naive")
  }

  test("windows' inputs and targets equal features and histogram bit for bit") {
    def bits(a: Array[Double]) = a.map(java.lang.Double.doubleToRawLongBits).toSeq
    val cats = diurnalCats(1, 60, 3, 5)
    // nSplits 7 does not divide the 240-segment input span (chunks of 34).
    for (sp <- Seq(spec, spec.copy(nSplits = 7))) {
      val f = new Forecaster(sp, 3, 60)
      val (inputSegs, horizonSegs, stride) = (240, 120, 30)
      val ends = inputSegs until (cats.length - horizonSegs) by stride
      val ws = f.windows(cats)
      assert(ws.size == ends.size)
      for (((x, y), end) <- ws.zip(ends)) {
        assert(bits(x) == bits(f.features(cats, end)), s"nSplits=${sp.nSplits} end=$end")
        assert(bits(y) == bits(f.histogram(cats, end, end + horizonSegs)),
               s"nSplits=${sp.nSplits} end=$end")
      }
    }
  }
}
