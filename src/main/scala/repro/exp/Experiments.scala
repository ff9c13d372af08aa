package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baselines.{ChameleonStar, Optimum, StaticBaseline, VideoStormStar}
import repro.core._
import repro.sim.Machines
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
    w match {
      case _: Mosei => Hyper(nCategories = 5, forecast = fc,
        categorySampleFrac = 0.10, nSearch = 10, preSampleSize = 2000)
      case _ => Hyper(nCategories = 5, forecast = fc,
        categorySampleFrac = 0.05, nSearch = 4, preSampleSize = 2000)
    }
  }

  def scale: Double =
    sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(1.0)

  def trainDaysFor(w: Workload): Int = math.max(3, math.round(w.trainDays * scale).toInt)
  def testDaysFor(w: Workload): Int  = math.max(1, math.round(w.testDays * scale).toInt)

  /** Buffer size used throughout the paper's experiments. */
  val BufferBytes: Double = 4e9

  private val cache = scala.collection.concurrent.TrieMap
    .empty[String, (SkyscraperModel, SegmentTrace, SegmentTrace)]

  /** Offline-fit Skyscraper and build train/test traces (memoized). */
  def fitted(spark: SparkSession, w: Workload)
      : (SkyscraperModel, SegmentTrace, SegmentTrace) =
    cache.getOrElseUpdate(s"${w.name}@$scale", {
      Skyscraper.fitAndTrace(spark, w, hyperFor(w), trainDaysFor(w), testDaysFor(w))
    })

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

  def onPremDollars(m: repro.sim.Machine, testDays: Int): Double =
    Machines.onPremDollars(m, testDays * 24.0)

  def table2(spark: SparkSession, w: Workload): Seq[T2Row] = {
    val (model, _, test) = fitted(spark, w)
    val testDays = testDaysFor(w)
    val rows = scala.collection.mutable.ArrayBuffer[T2Row]()

    for (m <- Machines.catalogue) {
      // Static: best real-time config, no buffer use, no cloud.
      val st = StaticBaseline.run(test, m.vCpus, BufferBytes, w.bitrateBytesPerSec,
                                  w.cloudBytesPerSec, w.uplinkBytesPerSec)
      rows += T2Row(w.name, "Static", m.vCpus, st.qualityPct, 0.0,
                    onPremDollars(m, testDays), crashed = false)
    }
    for (m <- Machines.catalogue) {
      val ch = ChameleonStar.run(test, m.vCpus, BufferBytes, w.bitrateBytesPerSec,
                                 w.cloudBytesPerSec, w.uplinkBytesPerSec)
      rows += T2Row(w.name, "Chameleon*", m.vCpus, ch.qualityPct, 0.0,
                    onPremDollars(m, testDays), crashed = ch.overflows > 0)
    }
    for (m <- Machines.catalogue) {
      val onPrem = onPremDollars(m, testDays)
      val budget = 0.12 * onPrem
      val sky = Skyscraper.run(model, test, m.vCpus, BufferBytes, budget)
      rows += T2Row(w.name, "Skyscraper", m.vCpus, sky.qualityPct, sky.cloudDollars,
                    onPrem + sky.cloudDollars, crashed = sky.overflows > 0)
    }
    rows.toSeq
  }

  // ------------------------------------------------------------------
  // Table 3 (Appendix E): offline phase step runtimes, COVID.
  // ------------------------------------------------------------------

  final case class T3Row(step: String, seconds: Double)

  def table3(spark: SparkSession, w: Workload = Covid): Seq[T3Row] = {
    val hyper = hyperFor(w)
    val trD = trainDaysFor(w)
    def timed[A](body: => A): (A, Double) = {
      val t0 = System.nanoTime()
      val r = body
      (r, (System.nanoTime() - t0) / 1e9)
    }

    // 1. Filter knob configurations (diverse sampling + hill climbing).
    val (pre, _) = timed(Skyscraper.preSample(spark, w, trD, hyper.preSampleSize, hyper.seed))
    val (k, tFilter) = timed(Pareto.filterConfigs(w, pre, hyper.nSearch, hyper.maxK))

    // 2. Filter task placements: estimate the runtime of every
    //    config × placement split with the Appendix-M estimator.
    val (_, tPlace) = timed {
      val sample = pre.take(200)
      for (p <- k; pl <- repro.sim.Placement.grid; s <- sample) yield {
        val work = w.costPerSec(p, s.load) * w.segSec
        val local = (1 - pl.cloudFrac) * work / 8.0
        val upload = pl.cloudFrac * w.cloudBytesPerSec * math.min(p.streamCap, s.load) *
          w.segSec / w.uplinkBytesPerSec
        math.max(local, upload)
      }
    }

    // 3. Compute content categories: process a sample of the unlabeled data
    //    with ALL kept configs (driver pass) and cluster the quality vectors.
    val (cats, tCats) = timed {
      val sampled = QualityMatrix.trace(spark, w,
        math.max(1, (trD * hyper.categorySampleFrac * 4).toInt), k, hyper.seed + 1)
      ContentCategories.fit(sampled, hyper.nCategories, 1.0, hyper.seed)
    }

    // 4. Create forecast training data: process ALL unlabeled data with the
    //    cheapest config (driver pass), classify, window into training pairs.
    val ((trainCats, forecaster), tData) = timed {
      val kMinus = Vector(k.head)
      val full = QualityMatrix.trace(spark, w, trD, kMinus, hyper.seed)
      // classify by the cheapest config's reported quality (Appendix H, Eq. 5)
      val catsArr = Array.tabulate(full.nSegments)(i =>
        cats.classifyOnline(0, full.report(i, 0)))
      val f = new Forecaster(hyper.forecast, cats.n, w.segSec, hyper.seed)
      (catsArr, f)
    }

    // 5. Train the forecasting model.
    val (_, tTrain) = timed(forecaster.fit(trainCats))

    Seq(
      T3Row("Filter knob configurations", tFilter),
      T3Row("Filter task placements", tPlace),
      T3Row("Compute content categories", tCats),
      T3Row("Create forecast training data", tData),
      T3Row("Train forecast model", tTrain),
    )
  }

  // ------------------------------------------------------------------
  // Table 4 (Appendix I.1): switcher classification accuracy vs |C|.
  // ------------------------------------------------------------------

  final case class T4Row(nCategories: Int, accuracy: Double)

  def table4(spark: SparkSession, w: Workload = Covid): Seq[T4Row] = {
    val (_, train, test) = fitted(spark, w)
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

  def table5(spark: SparkSession, ws: Seq[Workload] = Seq(Covid, Mot)): Seq[T5Row] =
    // Horizons longer than the test stream have no evaluable forecast
    // windows; at full scale (8 test days) all four horizons run.
    for (w <- ws; h <- Seq(1, 2, 4, 8) if h <= testDaysFor(w)) yield {
      val (model, train, test) = fitted(spark, w)
      val testCats = ContentCategories.assignOnline(model.cats, test)
      val all = model.trainCats ++ testCats
      val spec = hyperFor(w).forecast.copy(horizonDays = h.toDouble)
      val f = new Forecaster(spec, model.cats.n, w.segSec, hyperFor(w).seed)
      f.fit(model.trainCats)
      // Evaluate only forecasts that target the test period.
      val mae = f.maeRange(all, model.trainCats.length, all.length)
      T5Row(w.name, h, mae)
    }

  // ------------------------------------------------------------------
  // Table 6 (Appendix I.3): MAE vs input span × number of splits (COVID).
  // ------------------------------------------------------------------

  final case class T6Row(inputDays: Double, splits: Int, mae: Double)

  def table6(spark: SparkSession, w: Workload = Covid): Seq[T6Row] = {
    val (model, _, test) = fitted(spark, w)
    val testCats = ContentCategories.assignOnline(model.cats, test)
    val all = model.trainCats ++ testCats
    // Input spans beyond the training history cannot be featurized; at full
    // scale (16 train days) the whole grid runs.
    for (in <- Seq(0.5, 1.0, 2.0, 4.0, 8.0) if in <= trainDaysFor(w) - 1;
         sp <- Seq(1, 2, 4, 8)) yield {
      val spec = ForecastSpec(inputDays = in, nSplits = sp, horizonDays = 2,
                              sampleEveryMin = 15)
      val f = new Forecaster(spec, model.cats.n, w.segSec, hyperFor(w).seed)
      f.fit(model.trainCats)
      T6Row(in, sp, f.maeRange(all, model.trainCats.length, all.length))
    }
  }

  // ------------------------------------------------------------------
  // §5.4 ablation: buffering / cloud bursting enabled independently.
  // ------------------------------------------------------------------

  final case class AblRow(workload: String, vCpus: Int, variant: String,
                          qualityPct: Double, cloudDollars: Double,
                          workCoreSec: Double)

  def ablation(spark: SparkSession, w: Workload, vCpus: Int = 8,
               cloudRatio: Double = Machines.cloudRatio): Seq[AblRow] = {
    val (model, _, test) = fitted(spark, w)
    val onPrem = onPremDollars(Machines.catalogue.find(_.vCpus == vCpus).get, testDaysFor(w))
    val budget = 0.25 * onPrem
    val variants = Seq(
      ("no buffering, no cloud", false, false),
      ("only buffering", true, false),
      ("only cloud", false, true),
      ("buffering & cloud", true, true))
    variants.map { case (name, buf, cloud) =>
      val r = Skyscraper.run(model, test, vCpus, BufferBytes, budget,
                             cloudRatio = cloudRatio, useBuffer = buf, useCloud = cloud)
      AblRow(w.name, vCpus, name, r.qualityPct, r.cloudDollars, r.workCoreSec)
    }
  }

  /** Work comparison (§5.4 metric 2): Static vs Skyscraper vs Optimum at the
    * same total work budget.
    */
  final case class WorkRow(workload: String, method: String, workCoreSec: Double,
                           qualityPct: Double)

  def workComparison(spark: SparkSession, w: Workload, vCpus: Int = 8): Seq[WorkRow] = {
    val (model, _, test) = fitted(spark, w)
    val sky = Skyscraper.run(model, test, vCpus, BufferBytes, 0.0)
    val stIdx = StaticBaseline.bestRealTimeConfig(test, vCpus)
    val stWork = Iterator.range(0, test.nSegments).map(test.cost(_, stIdx)).sum
    val stQual = Iterator.range(0, test.nSegments).map(test.qual(_, stIdx)).sum / test.maxTotalQuality
    val opt = Optimum.assign(test, sky.workCoreSec)
    Seq(
      WorkRow(w.name, "Static", stWork, stQual),
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

  def switcherErrors(spark: SparkSession, w: Workload): T56Row = {
    val (model, _, test) = fitted(spark, w)
    val cats = model.cats
    val dim = cats.discriminatorDim
    val truth   = ContentCategories.assignFull(cats, test)
    val typeA   = ContentCategories.assignOnline(cats, test)
    val lagged  = Array.tabulate(test.nSegments) { i =>
      val j = math.max(0, i - 1)
      cats.classifyOnline(dim, test.report(j, dim))
    }
    def err(pred: Array[Int]): Double =
      pred.zip(truth).count { case (a, b) => a != b }.toDouble / truth.length
    T56Row(w.name, err(lagged), err(typeA))
  }

  /** Appendix G: VideoStorm on a static V-ETL job behaves like Static. */
  def videoStorm(spark: SparkSession, w: Workload): Seq[T2Row] = {
    val (_, _, test) = fitted(spark, w)
    val testDays = testDaysFor(w)
    Machines.catalogue.map { m =>
      val r = VideoStormStar.run(test, m.vCpus, BufferBytes, w.bitrateBytesPerSec,
                                 w.cloudBytesPerSec, w.uplinkBytesPerSec)
      T2Row(w.name, "VideoStorm*", m.vCpus, r.qualityPct, 0.0,
            onPremDollars(m, testDays), crashed = r.overflows > 0)
    }
  }
}
