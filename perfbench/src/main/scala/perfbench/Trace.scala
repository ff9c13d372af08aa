package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong
import org.apache.spark.scheduler._
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

/** One timed step of the traced run: `parent` is the id of the span that was
  * open when this one started (-1 at the top). Wall-clock milliseconds are
  * kept beside the monotonic times to line spans up with Spark's events.
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, startMs: Long,
                      var endNs: Long = -1L, var endMs: Long = -1L) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Spans of one traced run, kept in memory and written out when the run ends. */
final class Tracer {
  val spans = ArrayBuffer[Span]()
  private var open: List[Span] = Nil

  def span[A](name: String)(body: => A): A = {
    val s = Span(spans.size, name, open.headOption.fold(-1)(_.id), System.nanoTime(),
                 System.currentTimeMillis())
    spans += s
    open = s :: open
    try body
    finally {
      s.endNs = System.nanoTime()
      s.endMs = System.currentTimeMillis()
      open = open.tail
    }
  }

  def named(name: String): Seq[Span] = spans.filter(_.name == name).toSeq

  /** Total seconds of all spans called `name`. */
  def seconds(name: String): Double = named(name).map(_.seconds).sum

  /** The innermost span open at wall-clock time `ms`, if any. */
  def openAt(ms: Long): Option[Span] =
    spans.filter(s => s.startMs <= ms && ms <= s.endMs).maxByOption(_.startNs)

  def json(origin: Long): Seq[Map[String, Any]] = spans.toSeq.map(s => Map(
    "id" -> s.id, "name" -> s.name, "parent" -> s.parent,
    "start_s" -> (s.startNs - origin) / 1e9, "end_s" -> (s.endNs - origin) / 1e9))
}

/** Spark work from the public [[SparkListener]] events. The traced run does
  * nothing concurrently with its Spark calls, so each stage belongs to the
  * innermost span open when it was submitted.
  */
final class SparkWork extends SparkListener {
  final class StageWork {
    @volatile var submittedMs = -1L
    @volatile var completed = false
    val tasks, shuffleWrite, shuffleRead = new AtomicLong()
  }
  private val stages = new ConcurrentHashMap[Int, StageWork]()
  /** Jobs per streaming micro-batch, keyed by (query id, batch id). */
  val jobsPerBatch = new ConcurrentHashMap[String, AtomicLong]()
  private val started = new AtomicLong()
  private val ended   = new AtomicLong()

  private def stage(id: Int): StageWork = stages.computeIfAbsent(id, _ => new StageWork)

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    started.incrementAndGet()
    for (p <- Option(e.properties); query <- Option(p.getProperty("sql.streaming.queryId"));
         batch <- Option(p.getProperty("streaming.sql.batchId")))
      jobsPerBatch.computeIfAbsent(s"$query/$batch", _ => new AtomicLong()).incrementAndGet()
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = ended.incrementAndGet()

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    e.stageInfo.submissionTime.foreach(t => stage(e.stageInfo.stageId).submittedMs = t)

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit =
    stage(e.stageInfo.stageId).completed = true

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val s = stage(e.stageId)
    s.tasks.incrementAndGet()
    Option(e.taskMetrics).foreach { m =>
      s.shuffleWrite.addAndGet(m.shuffleWriteMetrics.bytesWritten)
      s.shuffleRead.addAndGet(m.shuffleReadMetrics.totalBytesRead)
    }
  }

  /** Stages, tasks and shuffle bytes of the stages submitted within spans
    * called `name` and not within one of their children.
    */
  def of(t: Tracer, name: String): Map[String, Long] = {
    val mine = stages.values.asScala.filter(s =>
      s.completed && t.openAt(s.submittedMs).exists(_.name == name)).toSeq
    Map("stages" -> mine.size.toLong, "tasks" -> mine.map(_.tasks.get).sum,
        "shuffle_write_bytes" -> mine.map(_.shuffleWrite.get).sum,
        "shuffle_read_bytes" -> mine.map(_.shuffleRead.get).sum)
  }

  /** Listener events arrive asynchronously: wait until every job seen has
    * ended and the bus has been quiet for a moment.
    */
  def settle(): Unit = {
    val deadline = System.nanoTime() + 10e9.toLong
    var last = -1L
    while (System.nanoTime() < deadline) {
      val now = started.get + ended.get
      if (started.get == ended.get && now == last) return
      last = now
      Thread.sleep(100)
    }
  }

  /** Spark jobs of each micro-batch of one streaming query. */
  def batchJobCounts(queryId: String): Seq[Long] =
    jobsPerBatch.asScala.collect { case (k, n) if k.startsWith(queryId + "/") => n.get }.toSeq
}

/** JVM-wide collector totals, for per-run deltas. */
object Gc {
  def snapshot(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount).filter(_ >= 0).sum,
     beans.map(_.getCollectionTime).filter(_ >= 0).sum)
  }

  /** Heap in use after a full collection, in MB: the least of three, as
    * Spark frees cached blocks and drains its listener queues asynchronously.
    */
  def liveHeapMb(): Double = Seq.fill(3) {
    Thread.sleep(200)
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }.min
}
