package repro.core

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import repro.SparkSpec
import repro.baselines.{ChameleonStar, Optimum, StaticBaseline, VideoStormStar}
import repro.exp.Experiments
import repro.workload.{Covid, MoseiHigh, MoseiLong, Mot, Workload}

/** End-to-end integration: offline fit + simulated online ingestion on a
  * short COVID-style stream (2 train days, 1 test day), plus pinned digests
  * of a 4+2-day COVID and MOT run.
  */
class SkyscraperSpec extends SparkSpec {

  private lazy val hyper = Hyper(
    nCategories = 3,
    forecast = ForecastSpec(inputDays = 0.5, nSplits = 4, horizonDays = 0.5,
                            sampleEveryMin = 30),
    preSampleSize = 800)

  private lazy val (model, train, test) =
    Skyscraper.fitAndTrace(Covid, hyper, trainDays = 2, testDays = 1)

  private def run(cores: Int, cloud: Double = 0.0, buffer: Double = 4e9) =
    Skyscraper.run(model, test, cores, bufferBytes = buffer, cloudBudget = cloud)

  private lazy val noBuffer = Experiments.noBufferBytes(Covid)

  test("offline phase produces a usable model") {
    assert(model.configs.size >= 3 && model.configs.size <= 14)
    assert(model.cats.n == 3)
    assert(model.trainCats.length == train.nSegments)
    assert(model.costHat.length == 3)
    val p = model.forecaster.predict(model.trainCats, model.trainCats.length)
    assert(math.abs(p.sum - 1.0) < 1e-9)
  }

  test("the fit records the wall time of each Table 3 step") {
    val t0 = System.nanoTime()
    val (m, _, _) = Skyscraper.fitAndTrace(Covid, hyper, trainDays = 2, testDays = 1)
    val wall = (System.nanoTime() - t0) / 1e9
    assert(m.steps.map(_._1) == Seq("Filter knob configurations", "Filter task placements",
      "Compute content categories", "Create forecast training data", "Train forecast model"))
    assert(m.steps.forall(_._2 >= 0), m.steps)
    assert(m.steps.toMap.apply("Filter task placements") == 0.0)
    assert(m.steps.map(_._2).sum <= wall, s"${m.steps} in $wall s")
  }

  test("train/test split boundaries are clean") {
    assert(train.nSegments == 2 * 86400 / 2)
    assert(test.nSegments == 86400 / 2)
    assert(train.dayOf(train.nSegments - 1) == 1 && test.dayOf(0) == 2)
  }

  test("never overflows the buffer (the V-ETL hard constraint)") {
    for (cores <- Seq(4, 8, 16)) {
      val r = run(cores)
      assert(r.overflows == 0, s"cores=$cores overflows=${r.overflows}")
      assert(r.maxBufferBytes <= 4e9 + 1e-3)
    }
  }

  test("beats the static baseline on the same hardware") {
    val sky = run(4)
    val st = StaticBaseline.run(train, test, 4, 4e9, Covid)
    assert(sky.qualityPct > st.qualityPct + 0.02,
      s"sky=${sky.qualityPct} static=${st.qualityPct}")
  }

  test("does not exceed the ground-truth optimum") {
    val cores = 4
    val sky = run(cores)
    val budget = cores.toDouble * test.nSegments * test.segSec
    val opt = Optimum.assign(test, budget)
    assert(sky.qualityPct <= opt.qualityPct + 0.02,
      s"sky=${sky.qualityPct} opt=${opt.qualityPct}")
  }

  test("gets reasonably close to the optimum (paper §5.4 'astonishingly close')") {
    val cores = 8
    val sky = run(cores)
    val opt = Optimum.assign(test, cores.toDouble * test.nSegments * test.segSec)
    assert(sky.qualityPct > opt.qualityPct - 0.15,
      s"sky=${sky.qualityPct} opt=${opt.qualityPct}")
  }

  test("quality is monotone in machine size") {
    val q = Seq(4, 16, 60).map(run(_).qualityPct)
    assert(q(1) >= q(0) - 0.02, q.toString)
    assert(q(2) >= q(1) - 0.02, q.toString)
  }

  test("cloud budget is never exceeded and helps quality") {
    val withCloud = run(4, cloud = 2.0)
    assert(withCloud.cloudDollars <= 2.0 + 1e-9)
    val noCloud = run(4)
    assert(withCloud.qualityPct >= noCloud.qualityPct - 0.02,
      s"cloud=${withCloud.qualityPct} none=${noCloud.qualityPct}")
  }

  test("ablation variants stay within the full system's quality") {
    val full       = run(4, cloud = 2.0)
    val onlyBuffer = run(4, cloud = 0.0)
    val onlyCloud  = run(4, cloud = 2.0, buffer = noBuffer)
    val neither    = run(4, cloud = 0.0, buffer = noBuffer)
    for ((r, name) <- Seq((onlyBuffer, "buffer"), (onlyCloud, "cloud"), (neither, "none")))
      assert(r.qualityPct <= full.qualityPct + 0.03, s"$name=${r.qualityPct} full=${full.qualityPct}")
    assert(neither.qualityPct <= onlyBuffer.qualityPct + 0.03)
    assert(full.overflows == 0 && onlyBuffer.overflows == 0)
  }

  test("variant without buffer and cloud degenerates toward best static") {
    val neither = run(4, cloud = 0.0, buffer = noBuffer)
    val st = StaticBaseline.run(train, test, 4, 4e9, Covid)
    assert(neither.qualityPct >= st.qualityPct - 0.10,
      s"neither=${neither.qualityPct} static=${st.qualityPct}")
  }

  test("the fit's one-pass ĉ/q̂ equal meanByCategory on each channel bit for bit") {
    import SkyscraperSpec.{bits, referenceMean}
    // A hand-built trace whose assignment leaves category 1 empty (the
    // channel's mean over all segments fills it), and a law trace slice.
    val hand = SegmentTrace(train.segSec, Array.fill(6)(0), Array.tabulate(6)(0.1 * _),
      Array.fill(6)(1.0), model.configs.take(3), Array.tabulate(6)(0.5 + 0.07 * _),
      Array.tabulate(18)(j => (j * 37 % 11) / 11.0), Array.tabulate(6, 3)((i, k) => 0.3 * i + k + 0.1))
    val slice = train.slice(1000, 3000)
    for ((t, catOf, nCats) <- Seq((hand, Array(0, 2, 0, 2, 2, 0), 3),
                                  (slice, ContentCategories.assignOnline(model.cats, slice), model.cats.n))) {
      val channels = Seq[(Int, Int) => Double](t.cost(_, _), t.qual(_, _))
      val onePass = Skyscraper.meansByCategory(channels.toArray, catOf, nCats, t)
      for ((cell, got) <- channels.zip(onePass)) {
        assert(bits(got) == bits(Skyscraper.meanByCategory(cell, catOf, nCats, t)))
        assert(bits(got) == bits(referenceMean(cell, catOf, nCats, t.nSegments, t.nConfigs)))
      }
    }
    assert(bits(model.costHat) ==
      bits(Skyscraper.meanByCategory(train.cost(_, _), model.trainCats, model.cats.n, train)))
    assert(bits(model.qualHat) ==
      bits(Skyscraper.meanByCategory(train.qual(_, _), model.trainCats, model.cats.n, train)))
  }

  test("switcher chooses multiple configurations (content adaptivity)") {
    val r = run(4)
    assert(r.chosen.distinct.length >= 2)
  }

  test("offline fit, online loop and baselines leave every trace cell unchanged") {
    // Trace arrays are read-only: every cell is the law evaluated on the
    // arrays the trace holds, so those arrays cover every cell.
    def storage(t: LawTrace): Seq[(String, Array[Array[Double]])] =
      Seq("dPow" -> Array(t.dPow),
          "difficulty" -> Array(t.difficulty), "load" -> t.segs.load.toArray,
          "regime" -> Array(t.segs.regime.map(_.toDouble)))
    val copies = Seq(train, test).map(storage(_).map(_._2.map(_.clone())))

    Skyscraper.fitFromTrace(Covid, model.configs, train, hyper)
    run(4, cloud = 2.0)
    StaticBaseline.run(train, test, 4, 4e9, Covid)
    ChameleonStar.run(train, test, 4, 4e9, Covid)
    VideoStormStar.run(train, test, 4, 4e9, Covid)
    Optimum.assign(test, 4.0 * test.nSegments * test.segSec)

    for ((t, copy) <- Seq(train, test).zip(copies);
         ((what, m), m0) <- storage(t).zip(copy);
         i <- m.indices) {
      val at = java.util.Arrays.mismatch(m(i), m0(i))
      assert(at < 0, s"$what $i changed at index $at")
    }
  }

  test("the pre-sample is the training prefix's stride pick") {
    val h = hyper.copy(preSampleSize = 500)
    for (w <- Seq[Workload](Covid, Mot, MoseiHigh, MoseiLong)) {
      val prefix = Skyscraper.preSample(w, QualityMatrix.segments(w, 3, h.seed), 2, 500)
      val (m, _, _) = Skyscraper.fitAndTrace(w, h, trainDays = 2, testDays = 1)
      assert(m.configs == Pareto.filterConfigs(w, prefix, h.maxK), w.name)
      // The Spark overload synthesizes a 2-day stream of its own: the same
      // segments, except on MOSEI-LONG, whose plateau moves with the
      // stream's end.
      if (w != MoseiLong)
        assert(Skyscraper.preSample(spark, w, 2, 500, h.seed) == prefix, w.name)
    }
  }

  test("the offline fit submits no Spark job") {
    for (w <- Seq[Workload](Covid, MoseiLong)) {
      val jobs = SkyscraperSpec.sparkJobsOf(spark)(
        Skyscraper.fitAndTrace(w, hyper, trainDays = 2, testDays = 1))
      assert(jobs == 0, s"${w.name}: $jobs Spark jobs")
    }
  }

  test("the filtered configurations K are pinned on every workload") {
    // K's config ids from fitAndTrace at 2+1 days. A change meant to keep K
    // must reproduce them; an intended change updates them and says so in
    // CHANGES.md.
    val pinned = Map[(String, Long), Seq[Int]](
      ("COVID", 7L) -> Seq(38, 28, 31, 4, 33, 8, 0, 17, 1),
      ("COVID", 1301L) -> Seq(38, 31, 4, 33, 8, 0, 17, 1),
      ("MOT", 7L) -> Seq(72, 76, 80, 86, 9, 68, 38, 17, 20, 23),
      ("MOT", 1301L) -> Seq(72, 76, 80, 86, 9, 68, 38, 14, 17, 20, 23),
      ("MOSEI-HIGH", 7L) -> Seq(648, 325, 440, 728, 531, 321, 105, 107),
      ("MOSEI-HIGH", 1301L) -> Seq(648, 325, 440, 728, 531, 321, 105, 107),
      ("MOSEI-LONG", 7L) -> Seq(648, 325, 440, 555, 14, 16, 105, 107),
      ("MOSEI-LONG", 1301L) -> Seq(648, 325, 440, 555, 9, 429, 105, 107),
    )
    val got = (for (w <- Seq[Workload](Covid, Mot, MoseiHigh, MoseiLong);
                    seed <- Seq(7L, 1301L)) yield {
      val (m, _, _) = Skyscraper.fitAndTrace(w, SkyscraperSpec.digestHyper.copy(seed = seed),
                                             trainDays = 2, testDays = 1)
      (w.name, seed) -> m.configs.map(_.id)
    }).toMap
    assert(got == pinned)
  }

  test("offline fit, plans and online loop reproduce the pinned digests") {
    // A change meant to keep every output must reproduce these values; an
    // intended behaviour change updates them and says so in CHANGES.md.
    val pinned = Map("COVID" -> "bcfc26fe3d9a3a36", "MOT" -> "b65a226f1d98d588")
    val got = Seq[Workload](Covid, Mot).map { w =>
      val (m, tr, te) = Skyscraper.fitAndTrace(w, SkyscraperSpec.digestHyper,
                                               trainDays = 4, testDays = 2)
      w.name -> SkyscraperSpec.digest(m, tr, te)
    }.toMap
    assert(got == pinned)
  }

  test("the four §5.4 ablation variants reproduce the pinned digests") {
    // COVID and MOT at 4+2 days, MOSEI at 2+1, on 4 cores with a budget
    // every cloud variant spends. A change meant to keep every decision must
    // reproduce these values.
    val pinned = Map("COVID" -> "bda8cfe717ea078d", "MOT" -> "944cba4a1f358bb7",
                     "MOSEI-HIGH" -> "aa519969833b5f0b", "MOSEI-LONG" -> "f4787379994dcacd")
    val got = Seq[(Workload, Int, Int)]((Covid, 4, 2), (Mot, 4, 2), (MoseiHigh, 2, 1),
                                        (MoseiLong, 2, 1)).map { case (w, trainDays, testDays) =>
      val (m, _, te) = Skyscraper.fitAndTrace(w, SkyscraperSpec.digestHyper, trainDays, testDays)
      val d = new SkyscraperSpec.Digest
      val noBuffer = Experiments.noBufferBytes(w)
      for ((buffer, cloud) <- Seq((noBuffer, 0.0), (4e9, 0.0), (noBuffer, 20.0), (4e9, 20.0))) {
        val r = Skyscraper.run(m, te, 4, buffer, cloud)
        assert((r.cloudDollars > 0) == (cloud > 0), s"${w.name} buffer=$buffer cloud=$cloud")
        d.doubles(Array(r.totalQuality, r.qualityPct, r.cloudDollars, r.workCoreSec))
        d.long(r.overflows.toLong)
        d.ints(r.chosen)
      }
      w.name -> d.hex
    }.toMap
    assert(got == pinned)
  }
}

object SkyscraperSpec {

  /** `Experiments.hyperFor` at `REPRO_SCALE=0.25`, spelled out so the pinned
    * digests do not depend on the environment.
    */
  val digestHyper: Hyper = Hyper(nCategories = 5,
    forecast = ForecastSpec(inputDays = 0.5, nSplits = 8, horizonDays = 0.5, sampleEveryMin = 15),
    categorySampleFrac = 0.05, preSampleSize = 2000, seed = 7)

  /** The number of Spark jobs `body` submits. Job ids grow in submission
    * order and listener events arrive in order, so once a marker job after
    * `body` has ended, every job `body` started has been seen: the jobs
    * between a marker before and the marker after are `body`'s.
    */
  def sparkJobsOf(spark: SparkSession)(body: => Any): Int = {
    val marker = "repro.jobCountMarker"
    val starts = new java.util.concurrent.ConcurrentLinkedQueue[(Int, Boolean)]()
    val markersEnded = new java.util.concurrent.Semaphore(0)
    val listener = new SparkListener {
      private val markerIds = java.util.concurrent.ConcurrentHashMap.newKeySet[Int]()
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        val isMarker = Option(e.properties).exists(_.getProperty(marker) != null)
        if (isMarker) markerIds.add(e.jobId)
        starts.add((e.jobId, isMarker))
      }
      override def onJobEnd(e: SparkListenerJobEnd): Unit =
        if (markerIds.contains(e.jobId)) markersEnded.release()
    }
    val sc = spark.sparkContext
    def runMarker(): Unit = {
      sc.setLocalProperty(marker, "1")
      try sc.parallelize(Seq(1), 1).count() finally sc.setLocalProperty(marker, null)
    }
    sc.addSparkListener(listener)
    try {
      runMarker()
      body
      runMarker()
      assert(markersEnded.tryAcquire(2, 60, java.util.concurrent.TimeUnit.SECONDS),
             "marker jobs' end events did not arrive")
    } finally sc.removeSparkListener(listener)
    val all = starts.toArray(Array.empty[(Int, Boolean)]).toSeq
    val Seq(before, after) = all.filter(_._2).map(_._1).sorted
    all.count { case (id, isMarker) => !isMarker && id > before && id < after }
  }

  def bits(m: Array[Array[Double]]): Seq[Seq[Long]] =
    m.map(_.map(java.lang.Double.doubleToLongBits).toSeq).toSeq

  /** Per-category column means as the fit first computed them: one pass per
    * channel, and an empty category's mean summed again per category.
    */
  def referenceMean(cell: (Int, Int) => Double, catOf: Array[Int], nCats: Int, n: Int,
                    nK: Int): Array[Array[Double]] = {
    val sums   = Array.ofDim[Double](nCats, nK)
    val counts = Array.ofDim[Double](nCats)
    for (i <- 0 until n) {
      for (k <- 0 until nK) sums(catOf(i))(k) += cell(i, k)
      counts(catOf(i)) += 1
    }
    Array.tabulate(nCats, nK) { (c, k) =>
      if (counts(c) > 0) sums(c)(k) / counts(c)
      else Iterator.range(0, n).map(cell(_, k)).sum / n
    }
  }

  /** Order-sensitive 64-bit digest of the bits of every value fed to it. */
  private[core] final class Digest {
    private var h = 0xcbf29ce484222325L
    def long(v: Long): Unit = { h = (h ^ v) * 0x100000001b3L; h ^= h >>> 29 }
    def ints(a: Array[Int]): Unit = a.foreach(v => long(v.toLong))
    def doubles(a: Array[Double]): Unit = a.foreach(double)
    def double(v: Double): Unit = long(java.lang.Double.doubleToLongBits(v))

    /** Every cell of `t`'s qual, cost and report channels: one channel after
      * the other, each segment by segment.
      */
    def channels(t: SegmentTrace): Unit =
      for (cell <- Seq[(Int, Int) => Double](t.qual(_, _), t.cost(_, _), t.report(_, _));
           i <- 0 until t.nSegments; k <- 0 until t.nConfigs)
        double(cell(i, k))
    def hex: String = f"$h%016x"
  }

  /** Digest of K, every trace channel, ĉ/q̂, the forecast, `KnobPlanner.plan`
    * at a few budgets and `Skyscraper.run` on 4 and 16 cores.
    */
  def digest(m: SkyscraperModel, train: SegmentTrace, test: SegmentTrace): String = {
    val d = new Digest
    m.configs.foreach(c => d.long(c.id.toLong))
    Seq(train, test).foreach(d.channels)
    d.ints(m.trainCats)
    m.costHat.foreach(d.doubles)
    m.qualHat.foreach(d.doubles)
    val r = m.forecaster.predict(m.trainCats, m.trainCats.length)
    d.doubles(r)
    for (budget <- Seq(0.01, 4 * train.segSec, 16 * train.segSec, 60 * train.segSec))
      KnobPlanner.plan(m.qualHat, m.costHat, r, budget).alpha.foreach(d.doubles)
    for (cores <- Seq(4, 16)) {
      val res = Skyscraper.run(m, test, cores, Experiments.BufferBytes, cloudBudget = 1.0)
      d.doubles(Array(res.totalQuality, res.qualityPct, res.cloudDollars))
      d.ints(res.chosen)
    }
    d.hex
  }
}
