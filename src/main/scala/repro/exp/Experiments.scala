package repro.exp

import repro.baselines.{ChameleonStar, Optimum, StaticBaseline, VideoStormStar}
import repro.core._
import repro.sim.{Machine, Machines, RunResult}
import repro.workload._

/** Harnesses reproducing the paper's evaluation tables (see DESIGN.md §4).
  *
  * Scale: `REPRO_SCALE` (default 1.0) shrinks the train/test day counts for
  * quick runs; the benches run at full paper scale (COVID/MOT: 16 train +
  * 8 test days; MOSEI: 10 + 2).
  */
object Experiments {

  /** Paper hyperparameters (Appendix K.1), with the forecast windows scaled
    * down alongside REPRO_SCALE so short debug runs still have training
    * windows (at scale 1 these are exactly the paper's 2-day settings).
    */
  def hyperFor(w: Workload): Hyper = {
    val fDays = math.max(0.25, 2.0 * math.min(1.0, scale))
    val fc = ForecastSpec(inputDays = fDays, nSplits = 8, horizonDays = fDays,
                          sampleEveryMin = 15)
    Hyper(nCategories = 5, forecast = fc, preSampleSize = 2000,
          categorySampleFrac = w match { case _: Mosei => 0.10; case _ => 0.05 })
  }

  def scale: Double =
    sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(1.0)

  def trainDaysFor(w: Workload): Int = math.max(3, math.round(w.trainDays * scale).toInt)
  def testDaysFor(w: Workload): Int  = math.max(1, math.round(w.testDays * scale).toInt)

  /** Buffer size used throughout the paper's experiments. */
  val BufferBytes: Double = 4e9

  /** The §5.4 "no buffering" buffer: two segments of `w`'s video. */
  def noBufferBytes(w: Workload): Double = w.bitrateBytesPerSec * w.segSec * 2

  private val cache = scala.collection.concurrent.TrieMap
    .empty[String, (SkyscraperModel, SegmentTrace, SegmentTrace)]

  /** Offline-fit Skyscraper and build train/test traces (memoized). */
  def fitted(w: Workload): (SkyscraperModel, SegmentTrace, SegmentTrace) =
    cache.getOrElseUpdate(s"${w.name}@$scale",
      Skyscraper.fitAndTrace(w, hyperFor(w), trainDaysFor(w), testDaysFor(w)))

  // ------------------------------------------------------------------
  // Table 2 (Appendix C / Fig. 4, §5.3): cost & quality per system.
  // ------------------------------------------------------------------

  final case class T2Row(workload: String, method: String, vCpus: Int,
                         qualityPct: Double, cloudDollars: Double,
                         totalDollars: Double, crashed: Boolean) {
    def fmt: String =
      f"$workload%-11s $method%-11s $vCpus%5d  ${qualityPct * 100}%5.1f%%  " +
      f"$cloudDollars%7.2f$$  $totalDollars%8.2f$$  ${if (crashed) "CRASH" else ""}%s"
  }

  def onPremDollars(m: Machine, testDays: Int): Double =
    Machines.onPremDollars(m, testDays * 24.0)

  /** The Table 2 row of `method`'s run `r` on machine `m`: total $ is the
    * on-prem rent over the test days plus the cloud $ the run spent, and the
    * row is crashed if the run's buffer overflowed.
    */
  def t2Row(w: Workload, method: String, m: Machine, r: RunResult): T2Row = {
    val onPrem = onPremDollars(m, testDaysFor(w))
    T2Row(w.name, method, m.vCpus, r.qualityPct, r.cloudDollars, onPrem + r.cloudDollars,
          crashed = r.overflows > 0)
  }

  def table2(w: Workload): Seq[T2Row] = {
    val (model, train, test) = fitted(w)
    // Static: best real-time config on the training days, no buffer use,
    // no cloud.
    Machines.catalogue.map(m =>
      t2Row(w, "Static", m, StaticBaseline.run(train, test, m.vCpus, BufferBytes, w))) ++
    Machines.catalogue.map(m =>
      t2Row(w, "Chameleon*", m, ChameleonStar.run(train, test, m.vCpus, BufferBytes, w))) ++
    Machines.catalogue.map { m =>
      val budget = 0.12 * onPremDollars(m, testDaysFor(w))
      t2Row(w, "Skyscraper", m, Skyscraper.run(model, test, m.vCpus, BufferBytes, budget))
    }
  }

  // ------------------------------------------------------------------
  // Table 3 (Appendix E): offline phase step runtimes, COVID.
  // ------------------------------------------------------------------

  final case class T3Row(step: String, seconds: Double)

  /** The step timings `fitted`'s offline phase recorded, one row per step
    * (see `Skyscraper.Steps` for what each covers).
    */
  def table3(w: Workload = Covid): Seq[T3Row] =
    fitted(w)._1.steps.map { case (step, s) => T3Row(step, s) }

  // ------------------------------------------------------------------
  // Table 4 (Appendix I.1): switcher classification accuracy vs |C|.
  // ------------------------------------------------------------------

  final case class T4Row(nCategories: Int, accuracy: Double)

  def table4(w: Workload = Covid): Seq[T4Row] = {
    val (_, train, test) = fitted(w)
    for (n <- Seq(1, 2, 3, 4, 8)) yield {
      val cats = ContentCategories.fit(train, n, hyperFor(w).categorySampleFrac)
      val full   = ContentCategories.assignFull(cats, test)
      val online = ContentCategories.assignOnline(cats, test)
      val acc = full.zip(online).count { case (a, b) => a == b }.toDouble / full.length
      T4Row(n, acc)
    }
  }

  // ------------------------------------------------------------------
  // Table 5 (Appendix I.3): forecast MAE vs planned-interval length.
  // ------------------------------------------------------------------

  final case class T5Row(workload: String, horizonDays: Int, mae: Double)

  def table5(ws: Seq[Workload] = Seq(Covid, Mot)): Seq[T5Row] =
    // Horizons longer than the test stream have no evaluable forecast
    // windows; at full scale (8 test days) all four horizons run.
    for (w <- ws; mae = forecastMae(w); h <- Seq(1, 2, 4, 8) if h <= testDaysFor(w))
      yield T5Row(w.name, h, mae(hyperFor(w).forecast.copy(horizonDays = h.toDouble)))

  // ------------------------------------------------------------------
  // Table 6 (Appendix I.3): MAE vs input span × number of splits (COVID).
  // ------------------------------------------------------------------

  final case class T6Row(inputDays: Double, splits: Int, mae: Double)

  def table6(w: Workload = Covid): Seq[T6Row] = {
    val mae = forecastMae(w)
    // Input spans beyond the training history cannot be featurized; at full
    // scale (16 train days) the whole grid runs.
    for (in <- Seq(0.5, 1.0, 2.0, 4.0, 8.0) if in <= trainDaysFor(w) - 1;
         sp <- Seq(1, 2, 4, 8))
      yield T6Row(in, sp, mae(ForecastSpec(inputDays = in, nSplits = sp, horizonDays = 2,
                                           sampleEveryMin = 15)))
  }

  /** A scorer of forecast specs on `w`: each spec's forecaster is fit on
    * the training categories and scored by `maeRange` on the forecasts that
    * target the test days. The scored stream, the training categories then
    * the test days classified online (Eq. 5), is built once per scorer.
    */
  private def forecastMae(w: Workload): ForecastSpec => Double = {
    val (model, _, test) = fitted(w)
    val all = model.trainCats ++ ContentCategories.assignOnline(model.cats, test)
    spec => {
      val f = new Forecaster(spec, model.cats.n, w.segSec, hyperFor(w).seed)
      f.fit(model.trainCats)
      f.maeRange(all, model.trainCats.length, all.length)
    }
  }

  // ------------------------------------------------------------------
  // §5.4 ablation: buffering / cloud bursting enabled independently.
  // ------------------------------------------------------------------

  final case class AblRow(workload: String, vCpus: Int, variant: String,
                          qualityPct: Double, cloudDollars: Double,
                          workCoreSec: Double)

  def ablation(w: Workload, vCpus: Int = 8,
               cloudRatio: Double = Machines.cloudRatio): Seq[AblRow] = {
    val (model, _, test) = fitted(w)
    val onPrem = onPremDollars(Machines.catalogue.find(_.vCpus == vCpus).get, testDaysFor(w))
    val budget = 0.25 * onPrem
    val variants = Seq(
      ("no buffering, no cloud", noBufferBytes(w), 0.0),
      ("only buffering", BufferBytes, 0.0),
      ("only cloud", noBufferBytes(w), budget),
      ("buffering & cloud", BufferBytes, budget))
    variants.map { case (name, buffer, cloud) =>
      val r = Skyscraper.run(model, test, vCpus, buffer, cloud, cloudRatio)
      AblRow(w.name, vCpus, name, r.qualityPct, r.cloudDollars, r.workCoreSec)
    }
  }

  /** Work comparison (§5.4 metric 2): Static vs Skyscraper vs Optimum at the
    * same total work budget.
    */
  final case class WorkRow(workload: String, method: String, workCoreSec: Double,
                           qualityPct: Double)

  def workComparison(w: Workload, vCpus: Int = 8): Seq[WorkRow] = {
    val (model, train, test) = fitted(w)
    val sky = Skyscraper.run(model, test, vCpus, BufferBytes, 0.0)
    val st = StaticBaseline.run(train, test, vCpus, BufferBytes, w)
    val opt = Optimum.assign(test, sky.workCoreSec)
    Seq(
      WorkRow(w.name, "Static", st.workCoreSec, st.qualityPct),
      WorkRow(w.name, "Skyscraper", sky.workCoreSec, sky.qualityPct),
      WorkRow(w.name, "Optimum", opt.workCoreSec, opt.qualityPct))
  }

  /** §5.6 microbenchmark: knob-switcher misclassification decomposition.
    *
    * Standard error: the switcher classifies segment i from the report of
    * segment i−1 (the paper's timing mismatch, Type-B) using one quality
    * dimension only (Type-A). Type-A-only error: classify from segment i's
    * own report (the paper's "No Type-B errors" baseline) — what remains is
    * the cost of single-dimension classification.
    */
  final case class T56Row(workload: String, standardErrPct: Double, typeAErrPct: Double)

  def switcherErrors(w: Workload): T56Row = {
    val (model, _, test) = fitted(w)
    val cats = model.cats
    val truth   = ContentCategories.assignFull(cats, test)
    val typeA   = ContentCategories.assignOnline(cats, test)
    // Segment i classified from segment i−1's report: typeA shifted by one.
    val lagged  = Array.tabulate(test.nSegments)(i => typeA(math.max(0, i - 1)))
    def err(pred: Array[Int]): Double =
      pred.zip(truth).count { case (a, b) => a != b }.toDouble / truth.length
    T56Row(w.name, err(lagged), err(typeA))
  }

  /** Appendix G: VideoStorm on a static V-ETL job behaves like Static. */
  def videoStorm(w: Workload): Seq[T2Row] = {
    val (_, train, test) = fitted(w)
    Machines.catalogue.map(m =>
      t2Row(w, "VideoStorm*", m, VideoStormStar.run(train, test, m.vCpus, BufferBytes, w)))
  }
}
