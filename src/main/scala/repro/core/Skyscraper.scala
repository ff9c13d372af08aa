package repro.core

import org.apache.spark.sql.SparkSession
import repro.sim._
import repro.video.SynthLaw
import repro.workload.{ConfigProfile, Workload}

/** Skyscraper hyperparameters (paper Appendix I defaults).
  *
  * @param nSearch unused: it sized the config filter's hill climb, which is
  *                gone; it stays only because `perfbench/` reads it
  *                (ROADMAP item 1 deletes it)
  */
final case class Hyper(
    nCategories: Int = 4,
    forecast: ForecastSpec = ForecastSpec(),
    preSampleSize: Int = 2000,
    nSearch: Int = 5,
    maxK: Int = 8,
    categorySampleFrac: Double = 0.05,
    seed: Long = 7,
)

/** Everything the offline phase produces (paper §3 / Fig. 2 left). */
final case class SkyscraperModel(
    workload: Workload,
    configs: Vector[ConfigProfile],
    cats: ContentCategories,
    forecaster: Forecaster,
    trainCats: Array[Int],
    costHat: Array[Array[Double]], // ĉ(c)(k) per-segment core·s
    qualHat: Array[Array[Double]], // q̂(c)(k) expected application quality
    hyper: Hyper,
    steps: Seq[(String, Double)] = Nil, // wall s per `Skyscraper.Steps` row; Nil if not recorded
)

/** Offline fitting and online ingestion of Skyscraper (paper §3–4). */
object Skyscraper {

  /** Paper Table 3's (Appendix E) offline steps, in its order; a fit records
    * each one's wall seconds in `SkyscraperModel.steps`. "Filter task
    * placements" runs nothing (0 s): the placement set is `Placement.grid`.
    */
  val Steps: Vector[String] = Vector("Filter knob configurations", "Filter task placements",
    "Compute content categories", "Create forecast training data", "Train forecast model")
  private final val FilterConfigs = 0
  private final val Categories    = 2
  private final val TrainingData  = 3
  private final val TrainForecast = 4

  /** Adds the wall seconds of each body it runs to that body's step. */
  private final class StepClock {
    private val secs = Array.ofDim[Double](Steps.length)
    def apply[A](step: Int)(body: => A): A = {
      val t0 = System.nanoTime()
      try body finally secs(step) += (System.nanoTime() - t0) / 1e9
    }
    def steps: Seq[(String, Double)] = Steps.zip(secs)
  }

  /** Run the offline phase on `trainDays` of history and build the traces.
    * Returns (model, trainTrace, testTrace); both traces share the filtered
    * configuration set K and evaluate their cells on read, and the model
    * records each step's wall time. The whole fit runs on the driver.
    */
  def fitAndTrace(w: Workload, hyper: Hyper, trainDays: Int,
                  testDays: Int): (SkyscraperModel, LawTrace, LawTrace) = {
    val clock = new StepClock

    // 1. Filter knob configurations on a content-diverse pre-sample of the
    //    train+test stream's training prefix. Synthesizing the stream is part
    //    of the full-data pass (Table 3's forecast training data).
    val segs = clock(TrainingData)(QualityMatrix.segments(w, trainDays + testDays, hyper.seed))
    val k = clock(FilterConfigs)(
      Pareto.filterConfigs(w, preSample(w, segs, trainDays, hyper.preSampleSize), hyper.maxK))

    // 2. One trace over train+test for the filtered K.
    val (train, test) = clock(TrainingData) {
      val full = QualityMatrix.trace(w, segs, k)
      val split = full.dayStart(trainDays)
      (full.slice(0, split), full.slice(split, full.nSegments))
    }

    (fit(w, k, train, hyper, clock), train, test)
  }

  /** The same fit; `spark` is unused. Kept for `perfbench/` (ROADMAP item 1). */
  @deprecated("spark is unused; call fitAndTrace(w, hyper, trainDays, testDays)", "0.1.0")
  def fitAndTrace(spark: SparkSession, w: Workload, hyper: Hyper, trainDays: Int,
                  testDays: Int): (SkyscraperModel, LawTrace, LawTrace) =
    fitAndTrace(w, hyper, trainDays, testDays)

  /** Driver-side offline phase given the training trace. */
  def fitFromTrace(w: Workload, k: Vector[ConfigProfile], train: SegmentTrace,
                   hyper: Hyper): SkyscraperModel =
    fit(w, k, train, hyper, new StepClock)

  private def fit(w: Workload, k: Vector[ConfigProfile], train: SegmentTrace,
                  hyper: Hyper, clock: StepClock): SkyscraperModel = {
    // The fit reads every train report cell: one parallel fill of a working
    // copy, which nothing keeps once the fit returns.
    val seen = clock(TrainingData)(SegmentTrace.withReportCopy(train))
    val cats = clock(Categories)(ContentCategories.fit(seen, hyper.nCategories,
                                                       hyper.categorySampleFrac, hyper.seed))
    val trainCats = clock(TrainingData)(ContentCategories.assignOnline(cats, seen))
    val Array(costHat, qualHat) = clock(Categories)(
      meansByCategory(Array(train.cost(_, _), seen.qual(_, _)), trainCats, cats.n, seen))
    val forecaster = clock(TrainForecast) {
      val f = new Forecaster(hyper.forecast, cats.n, train.segSec, hyper.seed)
      f.fit(trainCats)
      f
    }
    SkyscraperModel(w, k, cats, forecaster, trainCats, costHat, qualHat, hyper, clock.steps)
  }

  /** Diverse pre-sample of segments for the config filter (Appendix A.1):
    * every stride-th segment of a `days`-day stream. Only the picked segments
    * are synthesized, on the driver; `spark` is unused. Kept only because
    * `perfbench/` calls this signature (ROADMAP item 1). It equals
    * `fitAndTrace`'s pick from the longer stream's prefix except on
    * MOSEI-LONG, whose plateau moves with the stream's end.
    */
  def preSample(spark: SparkSession, w: Workload, days: Int, size: Int,
                seed: Long): Seq[Pareto.Seg] = {
    val law = new SynthLaw(w.streamSpec(days, seed))
    preSampleIds(w, days, size).map { i =>
      val s = law(i.toLong)
      Pareto.Seg(i, s.difficulty, s.load, s.regime)
    }
  }

  /** The same stride pick over the first `days` days of synthesized columns:
    * the pre-sample `fitAndTrace` filters on.
    */
  def preSample(w: Workload, segs: QualityMatrix.Segments, days: Int, size: Int): Seq[Pareto.Seg] =
    preSampleIds(w, days, size).takeWhile(_ < segs.n)
      .map(i => Pareto.Seg(i, segs.difficulty(i), segs.loadOf(i), segs.regimeOf(i)))

  /** The pre-sample's segment ids: about `size` of the first `days` days'. */
  private def preSampleIds(w: Workload, days: Int, size: Int): Range = {
    val total = days * 86400 / w.segSec.toInt
    0 until total by math.max(1, total / size)
  }

  /** Per-category column means of a (segment × config) channel read by
    * `cell(i, k)` — yields ĉ(c)(k) from costs and q̂(c)(k) from qualities
    * (paper §3.2's cluster centers, computed on the application-quality
    * channel).
    */
  def meanByCategory(cell: (Int, Int) => Double, catOf: Array[Int], nCats: Int,
                     trace: SegmentTrace): Array[Array[Double]] =
    meansByCategory(Array(cell), catOf, nCats, trace)(0)

  /** The same means over the rows of `matrix`. */
  def meanByCategory(matrix: Array[Array[Double]], catOf: Array[Int], nCats: Int,
                     trace: SegmentTrace): Array[Array[Double]] =
    meanByCategory((i: Int, k: Int) => matrix(i)(k), catOf, nCats, trace)

  /** `meanByCategory` of each channel in `cells`, all summed in one pass over
    * the segments: each (category, config) sum adds its cells in segment
    * order. A category no segment falls in gets the channel's mean over all
    * segments.
    */
  private[core] def meansByCategory(cells: Array[(Int, Int) => Double], catOf: Array[Int],
                                    nCats: Int, trace: SegmentTrace): Array[Array[Array[Double]]] = {
    val (n, nK) = (trace.nSegments, trace.nConfigs)
    val sums   = Array.ofDim[Double](cells.length, nCats, nK)
    val counts = new Array[Int](nCats)
    var i = 0
    while (i < n) {
      val c = catOf(i)
      var ch = 0
      while (ch < cells.length) {
        val cell = cells(ch)
        val sum  = sums(ch)(c)
        var k = 0
        while (k < nK) { sum(k) += cell(i, k); k += 1 }
        ch += 1
      }
      counts(c) += 1
      i += 1
    }
    for (ch <- cells.indices; c <- 0 until nCats; k <- 0 until nK)
      sums(ch)(c)(k) = if (counts(c) > 0) sums(ch)(c)(k) / counts(c)
                       else Iterator.range(0, n).map(cells(ch)(_, k)).sum / n
    sums
  }

  /** The online controller: periodic predictive planning + reactive
    * switching (paper §4). Without a cloud budget it offers the switcher
    * only the all-local placement, since no offload would be feasible.
    *
    * @param useCloud unused; it stays only because `perfbench/` passes it
    *                 (ROADMAP item 1 deletes it)
    */
  final class OnlineController(model: SkyscraperModel, cores: Int, nSegs: Int,
                               cloudBudget: Double, cloudPricePerCoreSec: Double,
                               useCloud: Boolean) extends Controller {
    private val segSec      = model.workload.segSec
    private val horizonSegs =
      math.max(1, (model.hyper.forecast.horizonDays * 86400.0 / segSec).toInt)
    private val placements =
      if (cloudBudget > 0) Placement.grid else Vector(Placement(0.0))
    val switcher = new KnobSwitcher(model.cats, model.qualHat, placements)
    // The category history the forecaster reads: the training categories,
    // then one observed category per segment, in history(0 until nHistory).
    private val history = java.util.Arrays.copyOf(model.trainCats, model.trainCats.length + nSegs)
    private var nHistory = model.trainCats.length
    var plansComputed = 0

    def choose(probe: Probe, segIdx: Int): Decision = {
      if (segIdx % horizonSegs == 0) replan(probe, segIdx)
      switcher.choose(probe)
    }

    override def observe(segIdx: Int, cfgIdx: Int, qual: Double, report: Double): Unit = {
      switcher.observe(cfgIdx, report)
      history(nHistory) = switcher.currentCategory
      nHistory += 1
    }

    private def replan(probe: Probe, segIdx: Int): Unit = {
      val r = model.forecaster.predict(history, nHistory)
      // Ration the remaining cloud credits over the remaining intervals.
      val segsLeft = math.max(1, nSegs - segIdx)
      val intervalSegs = math.min(horizonSegs, segsLeft)
      val cloudThisInterval = math.max(0.0, probe.cloudRemaining) * intervalSegs / segsLeft
      val cloudCoreSecPerSeg = cloudThisInterval / cloudPricePerCoreSec / intervalSegs
      val budgetPerSeg = cores * segSec + cloudCoreSecPerSeg
      val plan = KnobPlanner.plan(model.qualHat, model.costHat, r, budgetPerSeg)
      switcher.setPlan(plan)
      plansComputed += 1
    }
  }

  /** The model's q̂(c)(k). Kept for `perfbench/` (ROADMAP item 1). */
  @deprecated("read model.qualHat", "0.1.0")
  def qualHat(model: SkyscraperModel): Array[Array[Double]] = model.qualHat

  /** Simulate Skyscraper ingesting `test` on `cores` with a buffer of
    * `bufferBytes` and a cloud budget of `cloudBudget` $. The §5.4 ablation
    * variants are these two inputs (`Experiments.ablation`): a two-segment
    * buffer turns buffering off and a zero budget turns cloud bursting off.
    */
  def run(model: SkyscraperModel, test: SegmentTrace, cores: Int, bufferBytes: Double,
          cloudBudget: Double = 0.0, cloudRatio: Double = Machines.cloudRatio): RunResult = {
    val w = model.workload
    val price = Machines.cloudPerCoreSec(cloudRatio)
    val sim = new ClusterSim(test, cores, bufferBytes, cloudBudget, price,
      w.bitrateBytesPerSec, w.cloudBytesPerSec, w.uplinkBytesPerSec)
    val ctrl = new OnlineController(model, cores, test.nSegments, cloudBudget, price,
                                    useCloud = cloudBudget > 0)
    sim.run(ctrl)
  }
}
