package perfbench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import java.util.UUID
import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.{StreamingQueryListener, StreamingQueryProgress}
import org.apache.spark.sql.streaming.StreamingQueryListener._
import repro.Oracle
import repro.core.{KnobPlanner, SegmentTrace, Skyscraper, SkyscraperModel}
import repro.etl.{StreamingIngest, VetlPipeline}
import repro.workload.ConfigProfile
import scala.jdk.CollectionConverters._

/** Progress and termination of every streaming query, from the public
  * [[StreamingQueryListener]].
  */
final class ProgressLog extends StreamingQueryListener {
  private val progress   = new ConcurrentHashMap[UUID, ConcurrentLinkedQueue[StreamingQueryProgress]]()
  private val terminated = new ConcurrentHashMap[UUID, Option[String]]()

  def onQueryStarted(e: QueryStartedEvent): Unit = ()
  def onQueryProgress(e: QueryProgressEvent): Unit =
    progress.computeIfAbsent(e.progress.runId, _ => new ConcurrentLinkedQueue()).add(e.progress)
  def onQueryTerminated(e: QueryTerminatedEvent): Unit = terminated.put(e.runId, e.exception)

  /** Waits for the query run's termination event; its progress events precede it. */
  def await(runId: UUID): (Seq[StreamingQueryProgress], Option[String]) = {
    val deadline = System.nanoTime() + 30e9.toLong
    while (!terminated.containsKey(runId) && System.nanoTime() < deadline) Thread.sleep(5)
    val ps = Option(progress.get(runId)).fold(Seq.empty[StreamingQueryProgress])(_.asScala.toSeq)
    (ps.filter(_.numInputRows > 0).sortBy(_.batchId),
     Option(terminated.get(runId)).getOrElse(Some("no termination event")))
  }
}

/** A staged backlog: `files` hold consecutive test segments from `firstRow`. */
final case class Staged(name: String, files: Vector[File], firstRow: Int)

/** One drained backlog. `batches` are the progress reports of non-empty
  * micro-batches, in order.
  */
final case class Drain(staged: Staged, ingest: StreamingIngest, outDir: File, ckDir: File,
                       batches: Seq[StreamingQueryProgress], wallNs: Long,
                       error: Option[String], queryId: UUID) {
  def name: String = staged.name
  def files: Vector[File] = staged.files
  def batchMs: Seq[Double] = batches.map(_.durationMs.get("triggerExecution").doubleValue)
  /** Batch times after the first, which also pays for query start-up. */
  def steadyBatchMs: Seq[Double] = if (batchMs.size > 1) batchMs.drop(1) else batchMs
}

/** Outcome of the output checks on one drain. */
final case class DrainCheck(failedBatches: Int, problems: Seq[String], detections: Long,
                            oracleRows: Long, oracleNs: Long)

/** The `etl` layer: the V-ETL Structured Streaming job draining a staged
  * backlog of segment-batch JSON files, one file per micro-batch, with the
  * knob plan `jobs.StreamingIngestJob` builds.
  */
final class StreamPhase(spark: SparkSession, model: SkyscraperModel, test: SegmentTrace,
                        workDir: File, segsPerFile: Int) {
  val log = new ProgressLog
  spark.streams.addListener(log)

  /** `jobs.StreamingIngestJob`'s plan: one forecast over the training
    * categories, 8 cores' budget.
    */
  private val plan = {
    val r = model.forecaster.predict(model.trainCats, model.trainCats.length)
    KnobPlanner.plan(Skyscraper.qualHat(model), model.costHat, r, budgetPerSeg = 8 * model.workload.segSec)
  }

  private val firstSegId = model.trainCats.length.toLong
  private var nextRow = 0
  def filesLeft: Int = (test.nSegments - nextRow) / segsPerFile

  private def segId(row: Int): Long = firstSegId + row

  /** Writes the next `nFiles` × `segsPerFile` test segments as JSON files,
    * in the producer schema `StreamingIngest.schema`.
    */
  def stage(name: String, nFiles: Int): Staged = {
    require(nFiles <= filesLeft, s"backlog of $nFiles files exceeds the ${filesLeft} left")
    val in = new File(workDir, s"$name/in")
    in.mkdirs()
    val first = nextRow
    val files = Vector.tabulate(nFiles) { f =>
      val sb = new StringBuilder
      for (row <- first + f * segsPerFile until first + (f + 1) * segsPerFile) {
        val id = segId(row)
        val t = id * model.workload.segSec
        sb ++= s"""{"segId":$id,"t":$t,"day":${test.day(row)},"hour":${(t / 3600.0) % 24.0},""" +
          s""""regime":${test.regime(row)},"difficulty":${test.difficulty(row)},"load":${test.load(row)}}""" += '\n'
      }
      val file = new File(in, f"batch-$f%05d.json")
      Files.write(file.toPath, sb.toString.getBytes(StandardCharsets.UTF_8))
      file
    }
    nextRow += nFiles * segsPerFile
    Staged(name, files, first)
  }

  /** Drains one staged backlog with a fresh `StreamingIngest` (closed loop:
    * the next micro-batch starts when the previous one ends).
    */
  def drain(staged: Staged): Drain = {
    val dir = new File(workDir, staged.name)
    val (out, ck) = (new File(dir, "out"), new File(dir, "ck"))
    val ingest = new StreamingIngest(model, plan)
    val t0 = System.nanoTime()
    val q = ingest.start(spark, new File(dir, "in").getAbsolutePath,
                         out.getAbsolutePath, ck.getAbsolutePath)
    val thrown = try { q.awaitTermination(); None } catch { case e: Exception => Some(e.toString) }
    val wall = System.nanoTime() - t0
    val (batches, error) = log.await(q.runId)
    Drain(staged, ingest, out, ck, batches, wall, thrown.orElse(error), q.id)
  }

  /** Video seconds ingested per second of the drain's batches after its first. */
  def videoX(d: Drain): Double =
    d.steadyBatchMs.size * segsPerFile * model.workload.segSec / (d.steadyBatchMs.sum / 1e3)

  /** Files each micro-batch read, from the file source's metadata log. */
  private def sourceLog(ck: File): Map[String, Set[Long]] = {
    val dir = new File(ck, "sources/0")
    val Path  = "\"path\":\"([^\"]+)\"".r
    val Batch = "\"batchId\":(\\d+)".r
    val entries = Option(dir.listFiles).toSeq.flatten.filterNot(_.getName.startsWith("."))
      .flatMap(f => Files.readAllLines(f.toPath).asScala)
      .flatMap(l => for (p <- Path.findFirstMatchIn(l); b <- Batch.findFirstMatchIn(l))
                    yield new File(new java.net.URI(p.group(1)).getPath).getName -> b.group(1).toLong)
    entries.groupBy(_._1).map { case (f, es) => f -> es.map(_._2).toSet }
  }

  /** Every staged file processed exactly once, in its own micro-batch, with
    * one config per batch in the output; on `oracleFiles` sampled files,
    * the loaded detection counts must equal DuckDB's evaluation of
    * `VetlPipeline.transformCountsSql` for the config chosen.
    */
  def check(d: Drain, oracleFiles: Seq[Int], oracleSegs: Int): DrainCheck = {
    val problems = Seq.newBuilder[String]
    val bad = scala.collection.mutable.Set[Int]()
    def fail(f: Int, why: String): Unit = { bad += f; problems += s"${d.name} file $f: $why" }

    d.error.foreach(e => problems += s"${d.name}: query failed: $e")
    val seen = sourceLog(d.ckDir)
    val batchOf = d.files.indices.map { f =>
      seen.get(d.files(f).getName) match {
        case Some(bs) if bs.size == 1 => Some(bs.head)
        case Some(bs) => fail(f, s"read by ${bs.size} batches"); None
        case None     => fail(f, "never read"); None
      }
    }
    val batchIds = batchOf.flatten.sorted
    if (batchIds.distinct.size != batchIds.size)
      problems += s"${d.name}: ${batchIds.size - batchIds.distinct.size} files shared a micro-batch"
    if (d.ingest.chosenLog.size != d.files.size)
      problems += s"${d.name}: ${d.ingest.chosenLog.size} configs chosen for ${d.files.size} files"
    if (d.batches.size != d.files.size)
      problems += s"${d.name}: progress reports ${d.batches.size} batches for ${d.files.size} files"

    // Config chosen for each file's batch: `chosenLog` is in batch order.
    val rank = batchIds.distinct.zipWithIndex.toMap
    def cfgOf(f: Int): Option[ConfigProfile] =
      batchOf(f).flatMap(rank.get).filter(_ < d.ingest.chosenLog.size)
        .map(i => model.configs(d.ingest.chosenLog(i)))

    val base = segId(d.staged.firstRow)
    val out = if (d.outDir.exists) Some(spark.read.parquet(d.outDir.getAbsolutePath)) else None
    val perFile = out.fold(Map.empty[Int, (Long, Long, Long)]) { o =>
      o.groupBy(((col("segId") - base) / segsPerFile).cast("int") as "f")
        .agg(min("cfgId"), max("cfgId"), count(lit(1)))
        .collect().map(r => r.getInt(0) ->
          (r.getAs[Number](1).longValue, r.getAs[Number](2).longValue, r.getLong(3))).toMap
    }
    for (f <- d.files.indices if !bad(f)) perFile.get(f) match {
      case None => fail(f, "no detections loaded")
      case Some((lo, hi, _)) if lo != hi => fail(f, s"configs $lo..$hi mixed in one batch")
      case Some((lo, _, _)) if !cfgOf(f).exists(_.id == lo) =>
        fail(f, s"loaded with config $lo, switcher chose ${cfgOf(f).map(_.id)}")
      case _ =>
    }

    val t0 = System.nanoTime()
    var oracleRows = 0L
    for (f <- oracleFiles if !bad(f); o <- out; p <- cfgOf(f)) {
      val from = base + f.toLong * segsPerFile
      val rows = (0 until oracleSegs).map { i =>
        val row = d.staged.firstRow + f * segsPerFile + i
        (segId(row), test.difficulty(row))
      }
      val segs = spark.createDataFrame(rows).toDF("segId", "difficulty")
      val objects = VetlPipeline.objects(model.workload, segs).cache()
      oracleRows += objects.count()
      val loaded = o.where(col("segId") >= from && col("segId") < from + oracleSegs)
        .groupBy("segId").agg(count(lit(1)) as "detections")
      try Oracle.assertEquivalent(loaded,
             VetlPipeline.transformCountsSql(p, StreamingIngest.sampleEveryOf(p)),
             "objects" -> objects)
      catch { case e: IllegalArgumentException => fail(f, s"oracle: ${e.getMessage}") }
      finally objects.unpersist()
    }
    val oracleNs = System.nanoTime() - t0

    DrainCheck(bad.size, problems.result(), perFile.values.map(_._3).sum, oracleRows, oracleNs)
  }
}
