package perfbench

import java.io.File
import java.lang.management.ManagementFactory
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import repro.exp.Experiments
import repro.sim.RunResult
import repro.workload.{Covid, Mot, Workload}
import scala.collection.mutable.{ArrayBuffer, LinkedHashMap}

/** The V-ETL benchmark program. One JVM runs one workload, Table 2's path
  * on one of the paper's streams: `covid-batch` (COVID) or `mot-batch`
  * (MOT). The measured part repeats `Skyscraper.fitAndTrace`.
  *
  * Every run also does a fixed amount of the other phases (the Table 2
  * sweep of the online loop over the machine catalogue, and a drain through
  * `StreamingIngest`), so each workload reports every end-to-end metric and
  * checks every output.
  * With `--trace 1` it then runs each phase once more with spans and
  * counters and reports the per-layer metrics instead.
  *
  * Usage: perfbench.Main --workload W --seed N --seconds S --trace 0|1
  *          --work-dir DIR --result-file FILE [--git-rev REV]
  * Prints the result as the last line of stdout; exits 1 when a check fails.
  */
object Main {
  val Workloads: Map[String, Workload] = Map("covid-batch" -> Covid, "mot-batch" -> Mot)

  /** Segments per staged batch file: 100 × 2 s = 200 s of video. */
  val SegsPerFile = 100
  /** Batch files drained after the online sweeps. */
  val CompanionFiles = 4
  /** Sweeps timed after the warm-up sweep, for the per-layer online times. */
  val CompanionSweeps = 1
  /** Batch files drained by the traced run. */
  val TracedFiles = 4
  /** Segments per file compared against the DuckDB oracle. */
  val OracleSegs = 16

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val workload = opts.getOrElse("workload", "")
    require(Workloads.contains(workload), s"--workload must be one of ${Workloads.keys.mkString(", ")}")
    val code = new Run(workload, opts("seed").toLong, opts("seconds").toDouble,
                       opts.getOrElse("trace", "0") == "1", new File(opts("work-dir")),
                       new File(opts("result-file")), opts.getOrElse("git-rev", "unknown")).run()
    System.out.flush()
    sys.exit(code)
  }
}

final class Run(workload: String, seed: Long, seconds: Double, traced: Boolean,
                workDir: File, resultFile: File, gitRev: String) {
  import Main._

  private val w = Workloads(workload)
  private val problems = ArrayBuffer[String]()
  private var attempted = 0L
  private var failed = 0L
  private def check(ok: Boolean, what: => String): Unit = if (!ok) problems += what
  private def log(msg: String): Unit = System.err.println(s"[perfbench] $msg")

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Repeats of a step sized so that `perSecond` × `seconds` of them take
    * about `seconds` on a 4-vCPU host. The count is fixed rather than timed:
    * batch and fit times keep falling for dozens of repeats as the JIT warms
    * up, so a timed window would mix warm and cold repeats by host speed.
    */
  private def repeats(perSecond: Double, min: Int): Int =
    math.max(min, math.round(seconds * perSecond).toInt)

  /** Milliseconds of a fixed single-threaded integer loop (the least of
    * five): a record of how fast the host ran this run, for reading spreads.
    */
  private def hostProbeMs(): Double = Seq.fill(5) {
    val t0 = System.nanoTime()
    val h = new Digest
    var i = 0L
    while (i < 2000000L) { h.long(i); i += 1 }
    if (h.hex.isEmpty) sys.error("unreachable")
    (System.nanoTime() - t0) / 1e6
  }.min

  def run(): Int = {
    val probeAtStart = hostProbeMs()
    val jvmUptimeAtMain = ManagementFactory.getRuntimeMXBean.getUptime / 1e3
    val origin = System.nanoTime()
    def sinceJvmStart: Double = jvmUptimeAtMain + (System.nanoTime() - origin) / 1e9
    val gc0 = Gc.snapshot()

    // ---- Set-up: Spark session and the first (cold) fit.
    val spark = jobs.JobSession.spark(s"perfbench-$workload")
    val sessionS = sinceJvmStart
    val offline = new OfflinePhase(spark, w, Experiments.hyperFor(w).copy(seed = seed),
                                   Experiments.trainDaysFor(w), Experiments.testDaysFor(w))
    val (fitted, coldFitS) = timed(offline.fit())
    attempted += 1
    val liveHeapMb = Gc.liveHeapMb()
    log(f"session $sessionS%.2f s, cold fit $coldFitS%.2f s, ${fitted.segments} segments, " +
        f"|K| = ${fitted.model.configs.size}, live heap $liveHeapMb%.0f MB")

    val online = new OnlinePhase(fitted.model, fitted.test, offline.testDays)
    val stream = new StreamPhase(spark, fitted.model, fitted.test, workDir, SegsPerFile)
    def checkFit(f: Fitted, what: String): Unit = {
      attempted += 1
      if (f.digest != fitted.digest) { failed += 1; problems += s"$what: digest ${f.digest} != ${fitted.digest}" }
    }

    // Every sweep of a run must give the same results as the first.
    var firstSweep: Option[Vector[RunResult]] = None
    def firstOf(r: Vector[RunResult], what: String): Unit = firstSweep match {
      case None    => firstSweep = Some(r); checkBudget(online, r)
      case Some(f) => check(OnlinePhase.sameAll(r, f), s"online: $what diverged from the first sweep")
    }
    def onlineSweep(): Vector[TimedRun] = {
      val t = online.timedSweep()
      val r = t.map(_.result)
      attempted += online.segmentsPerSweep
      failed += r.map(_.overflows.toLong).sum
      firstOf(r, "wrapped controller")
      t
    }

    def drainChecked(name: String, files: Int): Drain = {
      val d = stream.drain(stream.stage(name, files))
      val c = stream.check(d, Seq(new scala.util.Random(seed).nextInt(files)), OracleSegs)
      attempted += files
      failed += c.failedBatches
      problems ++= c.problems
      log(f"drain $name: ${d.batches.size} batches, ${d.wallNs / 1e9}%.2f s")
      d
    }

    val setupS = sinceJvmStart

    // ---- The measured phase, then the fixed companion amounts, each after
    // its own warm-up. Other tenants of a shared host slow memory-bound code
    // by up to ~60 % in bursts of seconds, so repeated steps report their
    // fastest repeat (per layer): the fastest warm fit, and per machine the
    // fastest run.
    val fits = Seq.fill(repeats(0.2, 2))(timed(offline.fit()))
    fits.foreach { case (f, _) => checkFit(f, "offline: repeated fit") }
    val fitsS = fits.map(_._2)
    onlineSweep() // warm-up
    val sweeps = Seq.fill(CompanionSweeps)(onlineSweep())
    val sweepS = sweeps.map(_.map(_.seconds).sum)
    val fastest = online.machines.indices.map(i => sweeps.map(_(i)).minBy(_.seconds))
    val fastestS = fastest.map(_.seconds).sum
    val fastestNs = new Samples(online.segmentsPerSweep.toInt)
    fastest.foreach(r => fastestNs.addAll(r.decideNs))
    val (ref, refS) = timed(online.reference())
    log(f"reference sweep (Skyscraper.run) $refS%.2f s")
    firstOf(ref, "Skyscraper.run")
    val drain = drainChecked("companion", CompanionFiles)
    val lastSweep = onlineResults(online, firstSweep.get)

    val endToEnd = LinkedHashMap[String, (Double, String)](
      "setup_s"          -> (setupS, "s"),
      // The cold fit per second of JVM and Spark session start-up in the
      // same run: both are JIT- and memory-bound start-up work, so the ratio
      // cancels the host's speed, which drifts by up to 35 % between runs
      // minutes apart. The raw times are in the run metadata.
      "fit_per_session"  -> (coldFitS / sessionS, "x"),
      "live_heap_mb"     -> (liveHeapMb, "MB"),
      "quality_pct"      -> (lastSweep._1, "%"),
      "total_usd"        -> (lastSweep._2, "USD"),
    )
    val samples = Map("fits_s" -> fitsS, "sweeps_s" -> sweepS, "batches_ms" -> drain.batchMs,
                      "decisions" -> fastestNs.size)

    // ---- The traced run: each phase once more, in spans, with counters.
    val perLayer = if (traced) {
      val t = new TracedPhases(spark, offline, online, stream, fitted, firstSweep.get, seed)
      val r = t.run(drainFiles = TracedFiles, untracedFitS = Stats.median(fitsS),
                    untracedSweepS = Stats.median(sweepS), untracedFastestSweepS = fastestS,
                    untracedFastestFitS = fitsS.min, untracedDecideNs = fastestNs,
                    untracedDrain = drain)
      attempted += r.attempted
      failed += r.failed
      problems ++= r.problems
      Some(r)
    } else None
    val (gcCount, gcMs) = { val (c, ms) = Gc.snapshot(); (c - gc0._1, ms - gc0._2) }

    val metrics: Seq[(String, (Double, String))] = perLayer match {
      case Some(r) => r.metrics.toSeq ++ Seq("jvm.gc_s" -> (gcMs / 1e3, "s"),
                                             "jvm.gc_count" -> (gcCount.toDouble, "count"))
      case None    => endToEnd.toSeq
    }

    val meta = LinkedHashMap[String, Any](
      "workload" -> workload, "seed" -> seed, "seconds" -> seconds, "trace" -> traced,
      "git_rev" -> gitRev, "nproc" -> Runtime.getRuntime.availableProcessors,
      "spark_version" -> spark.version, "master" -> spark.sparkContext.master,
      "default_parallelism" -> spark.sparkContext.defaultParallelism,
      "shuffle_partitions" -> spark.conf.get("spark.sql.shuffle.partitions"),
      "driver_heap_mb" -> Runtime.getRuntime.maxMemory / (1024 * 1024),
      "jvm" -> s"${sys.props("java.vm.name")} ${sys.props("java.version")}",
      "scale" -> Experiments.scale, "train_days" -> offline.trainDays,
      "test_days" -> offline.testDays, "segments" -> fitted.segments,
      "k" -> fitted.model.configs.size, "segments_per_file" -> SegsPerFile,
      "samples" -> samples, "session_s" -> sessionS, "cold_fit_s" -> coldFitS,
      "host_probe_ms" -> Seq(probeAtStart, hostProbeMs()),
    )
    val result = LinkedHashMap[String, Any](
      "correct" -> problems.isEmpty, "attempted" -> attempted, "failed" -> failed,
      "metrics" -> LinkedHashMap(metrics.map { case (n, (v, u)) => n -> Map("value" -> v, "unit" -> u) }: _*))

    problems.foreach(p => log(s"CHECK FAILED: $p"))
    for ((n, (v, u)) <- metrics) log(f"$n%-34s $v%14.4f $u")
    val record = LinkedHashMap[String, Any]("meta" -> meta, "result" -> result,
      "problems" -> problems.toSeq,
      "machines" -> lastSweep._3, "spans" -> perLayer.fold(Seq.empty[Map[String, Any]])(_.spans))
    resultFile.getParentFile.mkdirs()
    Files.write(resultFile.toPath, Json.render(record).getBytes(StandardCharsets.UTF_8))

    spark.stop()
    println(Json.render(Map("meta" -> meta)))
    println(Json.render(result))
    if (problems.isEmpty) 0 else 1
  }

  /** Skyscraper never overflows the buffer or exceeds the budget. */
  private def checkBudget(online: OnlinePhase, ref: Seq[RunResult]): Unit =
    for ((m, r) <- online.machines.zip(ref)) {
      check(r.overflows == 0, s"online: ${r.overflows} overflows on ${m.vCpus} vCPU")
      check(r.cloudDollars <= online.budget(m) + 1e-9,
            f"online: ${r.cloudDollars}%.4f $$ spent of ${online.budget(m)}%.4f $$ on ${m.vCpus} vCPU")
    }

  /** Mean quality %, total $ (on-premise for the test days plus cloud) and
    * the per-machine rows. Each machine's quality is checked against the
    * recorded value for this (workload, scale, seed) where there is one: a
    * difference is a failed check.
    */
  private def onlineResults(online: OnlinePhase, ref: Seq[RunResult])
      : (Double, Double, Seq[Map[String, Any]]) = {
    val expected = OnlinePhase.expectedQualityPct.get((w.name, Experiments.scale, seed))
    val rows = online.machines.zip(ref).zipWithIndex.map { case ((m, r), i) =>
      val q = r.qualityPct * 100
      val exp = expected.map(_(i))
      val flag = exp.exists(e => math.abs(e - q) > 0.005)
      if (flag) problems += f"online: ${m.vCpus} vCPU quality $q%.2f %% drifted from the recorded ${exp.get}%.2f %%"
      log(f"${m.vCpus}%3d vCPU: quality $q%6.2f %% (recorded ${exp.fold("-")(e => f"$e%.2f")}%s)" +
          f"  cloud ${r.cloudDollars}%7.3f $$${if (flag) "  DRIFT" else ""}")
      Map("vcpus" -> m.vCpus, "quality_pct" -> q, "cloud_usd" -> r.cloudDollars,
          "expected_quality_pct" -> exp.getOrElse(null), "drift" -> flag)
    }
    val onPrem = online.machines.map(m => Experiments.onPremDollars(m, online.testDays)).sum
    (ref.map(_.qualityPct * 100).sum / ref.size, onPrem + ref.map(_.cloudDollars).sum, rows)
  }
}
