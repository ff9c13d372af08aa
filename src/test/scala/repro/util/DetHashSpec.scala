package repro.util

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class DetHashSpec extends AnyFunSuite {

  private def samples[A](gen: Gen[A], n: Int, seed: Long = 1): Seq[A] =
    (0 until n).flatMap(i => gen.apply(Gen.Parameters.default, Seed(seed + i)))

  test("uniform stays in [0,1)") {
    val coords = samples(Gen.zip(Gen.choose(0L, 1L << 40), Gen.choose(0L, 1L << 40),
                                 Gen.choose(0L, 1L << 40)), 300)
    coords.foreach { case (x, y, z) =>
      val u = DetHash.uniform(x, y, z)
      assert(u >= 0.0 && u < 1.0, s"($x,$y,$z) -> $u")
    }
  }

  test("deterministic") {
    assert(DetHash.uniform(1, 2, 3) == DetHash.uniform(1, 2, 3))
    assert(DetHash.mix(10, 20, 30) == DetHash.mix(10, 20, 30))
  }

  test("roughly uniform over [0,1)") {
    val n = 20000
    val mean = (0 until n).map(i => DetHash.uniform(i, i * 7 + 1, 3)).sum / n
    assert(math.abs(mean - 0.5) < 0.02, s"mean=$mean")
    val lowFrac = (0 until n).count(i => DetHash.uniform(i, i * 7 + 1, 3) < 0.25).toDouble / n
    assert(math.abs(lowFrac - 0.25) < 0.02, s"lowFrac=$lowFrac")
  }

  test("nearby coordinates decorrelate") {
    val vals = (0 until 1000).map(i => DetHash.uniform(i, 42, 7))
    val diffs = vals.sliding(2).count { case Seq(a, b) => math.abs(a - b) < 0.01 }
    assert(diffs < 50, s"too many near-equal neighbours: $diffs")
  }
}
