package perfbench

import org.apache.spark.sql.SparkSession
import repro.sim.RunResult
import scala.collection.mutable.{ArrayBuffer, LinkedHashMap}

final case class TracedResult(metrics: LinkedHashMap[String, (Double, String)],
                              spans: Seq[Map[String, Any]], attempted: Long, failed: Long,
                              problems: Seq[String])

/** The traced run: every phase once more, each layer call in a span, with
  * Spark work attributed to the open span and the online loop's controller
  * and probe wrapped in counters. Each traced result must equal the
  * untraced one.
  */
final class TracedPhases(spark: SparkSession, offline: OfflinePhase, online: OnlinePhase,
                         stream: StreamPhase, fitted: Fitted, reference: Seq[RunResult],
                         seed: Long) {

  def run(drainFiles: Int, untracedFitS: Double, untracedSweepS: Double,
          untracedFastestSweepS: Double, untracedFastestFitS: Double,
          untracedDecideNs: Samples,
          untracedDrain: Drain): TracedResult = {
    val origin = System.nanoTime()
    val work = new SparkWork
    spark.sparkContext.addSparkListener(work)
    val t = new Tracer
    val problems = ArrayBuffer[String]()

    t.span("video.scan")(offline.scanVideo())
    val f = offline.fitTraced(t)
    if (f.digest != fitted.digest)
      problems += s"offline: traced fit digest ${f.digest} != untraced ${fitted.digest}"

    val c = new OnlineCounters
    val sweep = t.span("online.sweep")(online.tracedSweep(c))
    if (!OnlinePhase.sameAll(sweep, reference))
      problems += "online: traced sweep diverged from the untraced one"

    val files = math.min(drainFiles, stream.filesLeft)
    val d = t.span("etl.drain")(stream.drain(stream.stage("traced", files)))
    val chk = t.span("oracle.check")(
      stream.check(d, Seq(new scala.util.Random(seed + 1).nextInt(files)), Main.OracleSegs))
    problems ++= chk.problems
    work.settle()
    spark.sparkContext.removeSparkListener(work)

    val qm = work.of(t, "quality_matrix.trace")
    def ms(key: String): Seq[Double] = d.batches.map(_.durationMs.get(key).doubleValue)
    val planningMs = d.batches.map(p =>
      Seq("latestOffset", "queryPlanning").map(k => Option(p.durationMs.get(k)).fold(0.0)(_.doubleValue)).sum)
    val jobsPerBatch = work.batchJobCounts(d.queryId.toString).map(_.toDouble)
    // Traced minus untraced, on the fit and the sweep.
    val overheadPct = 100 * ((t.seconds("offline.fit") + t.seconds("online.sweep")) /
                             (untracedFitS + untracedSweepS) - 1)

    val m = LinkedHashMap[String, (Double, String)](
      "video.scan_s"                     -> (t.seconds("video.scan"), "s"),
      "quality_matrix.trace_s"           -> (t.seconds("quality_matrix.trace"), "s"),
      "quality_matrix.cells"             -> (f.segments.toDouble * f.model.configs.size, "count"),
      "quality_matrix.shuffle_write_bytes" -> (qm("shuffle_write_bytes").toDouble, "bytes"),
      "quality_matrix.shuffle_read_bytes"  -> (qm("shuffle_read_bytes").toDouble, "bytes"),
      "quality_matrix.stages"            -> (qm("stages").toDouble, "count"),
      "quality_matrix.tasks"             -> (qm("tasks").toDouble, "count"),
      "offline.fit_s"                    -> (untracedFastestFitS, "s"),
      "offline.presample_s"              -> (t.seconds("offline.presample"), "s"),
      "pareto.filter_s"                  -> (t.seconds("pareto.filter"), "s"),
      "pareto.configs_kept"              -> (f.model.configs.size.toDouble, "count"),
      "categories.fit_s"                 -> (t.seconds("categories.fit"), "s"),
      "categories.assign_s"              -> (t.seconds("categories.assign"), "s"),
      "offline.mean_by_category_s"       -> (t.seconds("offline.mean_by_category"), "s"),
      "forecaster.fit_s"                 -> (t.seconds("forecaster.fit"), "s"),
      "online.seg_per_s"                 -> (online.segmentsPerSweep / untracedFastestSweepS, "1/s"),
      "online.sim_self_s"                -> ((c.sweepNs - c.chooseNs - c.replanNs - c.observeNs) / 1e9, "s"),
      "online.cloud_usd"                 -> (sweep.map(_.cloudDollars).sum, "USD"),
      "switcher.decisions"               -> (c.decisions.toDouble, "count"),
      "switcher.choose_s"                -> (c.chooseNs / 1e9, "s"),
      "switcher.observe_s"               -> (c.observeNs / 1e9, "s"),
      "switcher.decide_us_p50"           -> (untracedDecideNs.percentile(0.50) / 1e3, "us"),
      "switcher.decide_us_p99"           -> (untracedDecideNs.percentile(0.99) / 1e3, "us"),
      "switcher.decide_us_p999"          -> (c.decideNs.percentile(0.999) / 1e3, "us"),
      "switcher.feasible_calls"          -> (c.feasibleCalls.toDouble, "count"),
      "switcher.feasible_rejects"        -> (c.feasibleRejects.toDouble, "count"),
      "planner.replans"                  -> (c.replans.toDouble, "count"),
      "planner.replan_ms_max"            -> (c.replanMaxNs / 1e6, "ms"),
      "etl.ingest_video_x"               -> (stream.videoX(untracedDrain), "x"),
      "etl.batch_ms_p50"                 -> (Stats.percentile(untracedDrain.steadyBatchMs, 0.50), "ms"),
      "etl.batch_ms_max"                 -> (untracedDrain.steadyBatchMs.max, "ms"),
      "etl.batches"                      -> (d.batches.size.toDouble, "count"),
      "etl.input_rows"                   -> (d.batches.map(_.numInputRows).sum.toDouble, "count"),
      "etl.spark_jobs_per_batch"         -> (Stats.median(jobsPerBatch), "count"),
      "etl.add_batch_ms_p50"             -> (Stats.percentile(ms("addBatch").drop(1), 0.5), "ms"),
      "etl.planning_ms_p50"              -> (Stats.percentile(planningMs.drop(1), 0.5), "ms"),
      "etl.detections_written"           -> (chk.detections.toDouble, "count"),
      "etl.configs_used"                 -> (d.ingest.chosenLog.distinct.size.toDouble, "count"),
      "oracle.check_s"                   -> (chk.oracleNs / 1e9, "s"),
      "oracle.rows_loaded"               -> (chk.oracleRows.toDouble, "count"),
      "trace.overhead_pct"               -> (overheadPct, "%"),
    )
    TracedResult(m, t.json(origin), 2L + online.segmentsPerSweep + files,
                 sweep.map(_.overflows.toLong).sum + chk.failedBatches, problems.toSeq)
  }
}
