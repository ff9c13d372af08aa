package repro.etl

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.{StreamingQuery, Trigger}
import org.apache.spark.sql.types._
import repro.core.{KnobPlan, KnobSwitcher, SkyscraperModel}
import repro.sim.{Placement, Probe}

/** V-ETL as a Structured Streaming job (the distributed-dataflow mapping of
  * the paper's online phase): video-stream batches land as files; each
  * micro-batch is Transformed with the knob configuration the switcher
  * currently holds, detections are Loaded into an append-only store, and the
  * batch's reported quality drives the next switch — the driver-side
  * `foreachBatch` hook is exactly where the paper's switcher sits between
  * segments.
  */
final class StreamingIngest(model: SkyscraperModel, plan: KnobPlan) {

  val switcher = new KnobSwitcher(model.cats, model.qualHat,
                                  Vector(Placement(0.0)))
  switcher.setPlan(plan)

  /** Configs chosen per micro-batch (for inspection/tests). */
  val chosenLog = scala.collection.mutable.ArrayBuffer[Int]()

  /** Local-only probe: the streaming job itself has no simulated buffer —
    * backpressure is Spark's own (files queue up), so every config is
    * admissible and cloud placement is out of scope here.
    */
  private object LocalProbe extends Probe {
    def lagSec: Double = 0.0
    def bufferBytes: Double = 0.0
    def bufferCapBytes: Double = Double.MaxValue
    def cloudRemaining: Double = 0.0
    def feasible(cfgIdx: Int, p: Placement): Boolean = p.cloudFrac == 0.0
    def cloudCost(cfgIdx: Int, p: Placement): Double = 0.0
    def work(cfgIdx: Int): Double = model.configs(cfgIdx).unitCost
  }

  /** Segment-batch schema written by the producer (one JSON file per batch). */
  val schema: StructType = StructType(Seq(
    StructField("segId", LongType), StructField("t", DoubleType),
    StructField("day", IntegerType), StructField("hour", DoubleType),
    StructField("regime", IntegerType), StructField("difficulty", DoubleType),
    StructField("load", DoubleType),
  ))

  /** Transform and Load one micro-batch. The batch is persisted so its file
    * is read once, not once per action (emptiness check, detections write,
    * reported-quality aggregate).
    */
  def processBatch(batch: DataFrame, outputDir: String): Unit = {
    batch.persist()
    try {
      if (batch.isEmpty) return
      val cfgIdx = switcher.choose(LocalProbe).cfgIdx
      chosenLog += cfgIdx
      val p = model.configs(cfgIdx)
      val sampleEvery = StreamingIngest.sampleEveryOf(p)
      val (det, _, qual) = VetlPipeline.runConfig(model.workload, batch, p, sampleEvery)
      det.withColumn("cfgId", lit(p.id))
        .write.mode("append").parquet(outputDir)
      val meanQ = qual.agg(avg("quality")).collect()(0).getDouble(0)
      switcher.observe(cfgIdx, meanQ)
    } finally batch.unpersist()
  }

  /** Start the file-source streaming query; one file per trigger so every
    * dropped batch file is one "video segment" decision.
    */
  def start(spark: SparkSession, inputDir: String, outputDir: String,
            checkpointDir: String): StreamingQuery = {
    val in = spark.readStream
      .schema(schema)
      .option("maxFilesPerTrigger", 1)
      .json(inputDir)
    in.writeStream
      .option("checkpointLocation", checkpointDir)
      .trigger(Trigger.AvailableNow())
      .foreachBatch { (batch: DataFrame, _: Long) => processBatch(batch, outputDir) }
      .start()
  }
}

object StreamingIngest {
  /** Frame-sampling stride implied by a config's frame-rate knob (knob 0 of
    * the single-stream workloads): process every (30/fps)-th frame.
    */
  def sampleEveryOf(p: repro.workload.ConfigProfile): Int =
    math.max(1, math.round(VetlPipeline.BaseFps / math.max(p.cfg.values.head, 1.0)).toInt)
}
