package repro.core

import repro.util.Mlp

/** Content-distribution forecaster (paper §3.3, Appendices H, K).
  *
  * Input: the category-frequency histograms of the last `inputDays`, split
  * into `nSplits` chunks (time-series features). Output: the category
  * histogram expected over the next `horizonDays` (the planned interval).
  * Architecture per Appendix K: input → 16 ReLU → 8 ReLU → |C| softmax,
  * 40 epochs, 20% validation split, best-validation weights kept.
  */
final case class ForecastSpec(
    inputDays: Double = 2.0,
    nSplits: Int = 8,
    horizonDays: Double = 2.0,
    sampleEveryMin: Double = 15.0,
)

final class Forecaster(val spec: ForecastSpec, val nCategories: Int, segSec: Double,
                       seed: Long = 42) {
  private val segsPerDay    = (86400.0 / segSec).toInt
  private val inputSegs     = (spec.inputDays * segsPerDay).toInt
  private val chunkSegs     = math.max(1, inputSegs / spec.nSplits)
  private val horizonSegs   = (spec.horizonDays * segsPerDay).toInt
  private val strideSegs    = math.max(1, (spec.sampleEveryMin * 60.0 / segSec).toInt)

  val inputDim: Int = spec.nSplits * nCategories
  private val net = new Mlp(Array(inputDim, 16, 8, nCategories), seed)
  private var trainedWindows = 0

  /** Frequency histogram of `cats[from, until)`, counted directly: the one
    * window [[predict]] reads. [[prefixHistogram]] serves the many windows of
    * [[windows]] and [[maeRange]]; building its counts for [[predict]], even
    * over the input window only, made §5.5's planner row 7–10× slower
    * (0.21–0.26 → 1.72–2.05 ms on 4 vCPUs).
    */
  def histogram(cats: Array[Int], from: Int, until: Int): Array[Double] = {
    val h = Array.ofDim[Double](nCategories)
    var i = math.max(0, from)
    val end = math.min(cats.length, until)
    var n = 0
    while (i < end) { h(cats(i)) += 1.0; n += 1; i += 1 }
    if (n > 0) { var c = 0; while (c < nCategories) { h(c) /= n; c += 1 } }
    h
  }

  /** Feature vector: `nSplits` chunk histograms over cats[end−inputSegs, end). */
  def features(cats: Array[Int], end: Int): Array[Double] =
    features(end, histogram(cats, _, _))

  /** The feature vector at `end`, each chunk's histogram from `hist(from, until)`. */
  private def features(end: Int, hist: (Int, Int) => Array[Double]): Array[Double] = {
    val out = Array.ofDim[Double](inputDim)
    for (s <- 0 until spec.nSplits) {
      val from = end - inputSegs + s * chunkSegs
      val h = hist(from, math.min(end, from + chunkSegs))
      Array.copy(h, 0, out, s * nCategories, nCategories)
    }
    out
  }

  /** Sliding-window (input, target) pairs over a category sequence; one
    * training point every `sampleEveryMin` (paper: every 15 minutes).
    */
  def windows(cats: Array[Int]): Seq[(Array[Double], Array[Double])] = {
    val hist = prefixHistogram(cats)
    val starts = inputSegs until (cats.length - horizonSegs) by strideSegs
    starts.map(end => (features(end, hist), hist(end, end + horizonSegs)))
  }

  /** [[histogram]] of `cats` from one prefix-count array, `counts(i·|C| + c)`
    * = occurrences of c in cats[0, i): a count difference is the exact
    * integer [[histogram]] sums, divided by the same n, so the values are
    * equal. For passes that read many windows of one sequence.
    */
  private def prefixHistogram(cats: Array[Int]): (Int, Int) => Array[Double] = {
    val nC = nCategories
    val counts = new Array[Int]((cats.length + 1) * nC)
    var i = 0
    while (i < cats.length) {
      System.arraycopy(counts, i * nC, counts, (i + 1) * nC, nC)
      counts((i + 1) * nC + cats(i)) += 1
      i += 1
    }
    (from, until) => {
      val h = Array.ofDim[Double](nC)
      val (a, b) = (math.max(0, from), math.min(cats.length, until))
      var c = 0
      while (b > a && c < nC) {
        h(c) = (counts(b * nC + c) - counts(a * nC + c)).toDouble / (b - a)
        c += 1
      }
      h
    }
  }

  /** Train on the category sequence of the unlabeled data; returns best
    * validation loss (NaN if no windows fit).
    */
  def fit(trainCats: Array[Int], epochs: Int = 40, lr: Double = 0.05): Double = {
    val ws = windows(trainCats)
    trainedWindows = ws.size
    net.fit(ws, epochs, lr)
  }

  /** Forecast the category histogram for the next planned interval, given
    * the recent history up to (exclusive) `end`. With too little training
    * data to fit the net (short histories), falls back to the naive
    * input-window mean — the persistence forecast.
    */
  def predict(cats: Array[Int], end: Int): Array[Double] = forecast(features(cats, end))

  /** [[predict]]'s forecast from the feature vector `x`. */
  private def forecast(x: Array[Double]): Array[Double] =
    if (trainedWindows >= 20) net.predict(x)
    else {
      val h = Array.tabulate(nCategories) { c =>
        (0 until spec.nSplits).map(s => x(s * nCategories + c)).sum / spec.nSplits
      }
      val s = h.sum
      if (s > 0) h.map(_ / s) else Array.fill(nCategories)(1.0 / nCategories)
    }

  /** Mean absolute error of the forecasts whose end lies in [endFrom,
    * endUntil], on the histograms [[windows]] reads — a test suffix, while
    * inputs may reach into the training prefix (paper §5.6: train 16 days,
    * forecast the 8 test days). Untrained, it scores the persistence
    * forecast, the naive baseline.
    */
  def maeRange(cats: Array[Int], endFrom: Int, endUntil: Int): Double = {
    val ends = math.max(inputSegs, endFrom) to
      math.min(cats.length - horizonSegs, endUntil) by strideSegs
    if (ends.isEmpty) return Double.NaN
    val hist = prefixHistogram(cats)
    val errs = ends.map { end =>
      val p = forecast(features(end, hist))
      val y = hist(end, end + horizonSegs)
      p.zip(y).map { case (a, b) => math.abs(a - b) }.sum / nCategories
    }
    errs.sum / errs.size
  }
}
