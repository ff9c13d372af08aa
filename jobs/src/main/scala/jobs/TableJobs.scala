package jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Experiments
import repro.workload._

/** spark-submit entrypoints, one per reproduced table.
  *
  * Example:
  * {{{
  *   spark-submit --class jobs.Table2Job repro-jobs.jar [WORKLOAD]
  * }}}
  * Scale with REPRO_SCALE (default 1.0 = the paper's day counts).
  */
object JobSession {
  def spark(name: String): SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }

  def workloadsOf(args: Array[String]): Seq[Workload] =
    if (args.isEmpty) Seq(Covid, Mot, MoseiHigh, MoseiLong)
    else args.toSeq.map {
      case "COVID" => Covid
      case "MOT" => Mot
      case "MOSEI-HIGH" => MoseiHigh
      case "MOSEI-LONG" => MoseiLong
      case other => sys.error(s"unknown workload $other")
    }
}

/** Table 2: cost & quality of Static / Chameleon* / Skyscraper. */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table2")
    for (w <- JobSession.workloadsOf(args);
         r <- Experiments.table2(spark, w)) println(r.fmt)
    spark.stop()
  }
}

/** Table 3: offline-phase step runtimes (COVID). */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table3")
    Experiments.table3(spark).foreach(r => println(f"${r.step}%-32s ${r.seconds}%8.2f s"))
    spark.stop()
  }
}

/** Table 4: switcher classification accuracy vs number of categories. */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table4")
    Experiments.table4(spark).foreach(r =>
      println(f"${r.nCategories}%2d categories: ${r.accuracy * 100}%6.2f%%"))
    spark.stop()
  }
}

/** Table 5: forecast MAE vs planned-interval length. */
object Table5Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table5")
    Experiments.table5(spark).foreach(r =>
      println(f"${r.workload}%-9s ${r.horizonDays}%2dd: MAE ${r.mae}%7.4f"))
    spark.stop()
  }
}

/** Table 6: forecast MAE vs input-feature shape (COVID). */
object Table6Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("table6")
    Experiments.table6(spark).foreach(r =>
      println(f"in=${r.inputDays}%4.1fd splits=${r.splits}%d: MAE ${r.mae}%7.4f"))
    spark.stop()
  }
}

/** §5.4 ablation variants. */
object AblationJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.spark("ablation")
    for (w <- JobSession.workloadsOf(args); r <- Experiments.ablation(spark, w))
      println(f"${r.workload}%-11s ${r.variant}%-24s ${r.qualityPct * 100}%5.1f%% " +
              f"cloud ${r.cloudDollars}%6.2f$$")
    spark.stop()
  }
}
