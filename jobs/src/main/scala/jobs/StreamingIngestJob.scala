package jobs

import repro.core.{KnobPlanner, Skyscraper}
import repro.etl.StreamingIngest
import repro.exp.Experiments
import repro.workload.Covid

/** End-to-end V-ETL Structured Streaming job: fits Skyscraper offline on
  * synthetic history, then ingests segment-batch files dropped into
  * `<inputDir>` and loads detections (parquet) into `<outputDir>`, switching
  * knobs per micro-batch.
  *
  * Usage: spark-submit --class jobs.StreamingIngestJob repro-jobs.jar \
  *          <inputDir> <outputDir> <checkpointDir> [cores]
  */
object StreamingIngestJob {
  def main(args: Array[String]): Unit = {
    require(args.length >= 3, "args: <inputDir> <outputDir> <checkpointDir> [cores]")
    val Array(inDir, outDir, ckDir) = args.take(3)
    val cores = if (args.length > 3) args(3).toInt else 8

    val spark = JobSession.spark("vetl-streaming-ingest")
    val (model, _, _) = Experiments.fitted(Covid)

    // One knob plan up front (the planner would refresh it every 2 days).
    val r = model.forecaster.predict(model.trainCats, model.trainCats.length)
    val plan = KnobPlanner.plan(Skyscraper.qualHat(model), model.costHat, r,
                                budgetPerSeg = cores * Covid.segSec)
    val ingest = new StreamingIngest(model, plan)
    val query = ingest.start(spark, inDir, outDir, ckDir)
    query.awaitTermination()
    println(s"processed ${ingest.chosenLog.size} batches; " +
            s"configs used: ${ingest.chosenLog.distinct.sorted.mkString(",")}")
    spark.stop()
  }
}
