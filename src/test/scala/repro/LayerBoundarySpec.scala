package repro

import java.io.File
import scala.io.Source
import org.scalatest.funsuite.AnyFunSuite

/** The driver-side layers import no Spark: Spark belongs to `etl` and the
  * DuckDB `Oracle`. Sources are read under the project base directory, the
  * nearest directory at or above the working directory (where sbt forks the
  * tests) that holds `build.sbt`.
  */
class LayerBoundarySpec extends AnyFunSuite {

  private val sparkFree = Seq("exp", "util", "sim", "baselines")

  private lazy val repro: File =
    Iterator.iterate(new File(sys.props("user.dir")).getAbsoluteFile)(_.getParentFile)
      .takeWhile(_ != null)
      .find(d => new File(d, "build.sbt").isFile && new File(d, "src/main/scala/repro").isDirectory)
      .map(new File(_, "src/main/scala/repro"))
      .getOrElse(fail(s"no project base directory above ${sys.props("user.dir")}"))

  private def sources(dir: File): Seq[File] =
    Option(dir.listFiles).toSeq.flatten.sortBy(_.getName).flatMap { f =>
      if (f.isDirectory) sources(f) else if (f.getName.endsWith(".scala")) Seq(f) else Nil
    }

  /** An import or a fully qualified name: either puts Spark on the classpath. */
  private def usesSpark(f: File): Boolean = {
    val src = Source.fromFile(f, "UTF-8")
    try src.getLines().exists(_.contains("org.apache.spark")) finally src.close()
  }

  test("exp, util, sim and baselines import no Spark") {
    val files = sparkFree.flatMap(p => sources(new File(repro, p)))
    assert(sparkFree.forall(p => files.exists(_.getParentFile.getName == p)), files)
    val offenders = files.filter(usesSpark).map(_.getPath.stripPrefix(repro.getPath + "/"))
    assert(offenders.isEmpty, s"Spark imported outside the etl layer: $offenders")
    // The scan sees Spark where it is used.
    assert(usesSpark(new File(repro, "etl/VetlPipeline.scala")))
  }

  test("in core, workload and video only the four known files import Spark") {
    // ROADMAP item 10 moves these four off Spark; a fifth must not join them.
    val known = Set("core/Skyscraper.scala", "core/QualityMatrix.scala",
                    "workload/Workload.scala", "video/VideoSynth.scala")
    val files = Seq("core", "workload", "video").flatMap(p => sources(new File(repro, p)))
    val users = files.filter(usesSpark).map(_.getPath.stripPrefix(repro.getPath + "/")).toSet
    assert(users == known, s"Spark imported by ${users -- known}; no longer by ${known -- users}")
  }
}
