package perfbench

/** A growable array of non-negative samples (nanoseconds or milliseconds). */
final class Samples(initial: Int = 1 << 16) {
  private var data = new Array[Long](initial)
  private var n = 0

  def add(v: Long): Unit = {
    if (n == data.length) data = java.util.Arrays.copyOf(data, n * 2)
    data(n) = v
    n += 1
  }
  def addAll(o: Samples): Unit = { var i = 0; while (i < o.n) { add(o.data(i)); i += 1 } }
  def size: Int = n

  /** Nearest-rank percentile, `q` in (0, 1]. */
  def percentile(q: Double): Double = {
    require(n > 0, "no samples")
    val sorted = java.util.Arrays.copyOf(data, n)
    java.util.Arrays.sort(sorted)
    sorted(math.min(n - 1, math.max(0, math.ceil(q * n).toInt - 1))).toDouble
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "no values")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Nearest-rank percentile, `q` in (0, 1]. */
  def percentile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "no values")
    val s = xs.sorted
    s(math.min(s.length - 1, math.max(0, math.ceil(q * s.length).toInt - 1)))
  }
}

/** Minimal JSON rendering for results and traces. */
object Json {
  def render(v: Any): String = v match {
    case null                => "null"
    case s: String           => quote(s)
    case b: Boolean          => b.toString
    case d: Double           => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int              => n.toString
    case n: Long             => n.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + render(x) }.mkString("{", ",", "}")
    case xs: Iterable[_]     => xs.map(render).mkString("[", ",", "]")
    case other               => quote(other.toString)
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    (b += '"').toString
  }
}

/** Order-sensitive 64-bit digest of arrays, for comparing two runs' outputs. */
final class Digest {
  private var h = 0xcbf29ce484222325L
  def long(v: Long): Digest = { h = (h ^ v) * 0x100000001b3L; h ^= h >>> 29; this }
  def double(v: Double): Digest = long(java.lang.Double.doubleToLongBits(v))
  def doubles(a: Array[Double]): Digest = { var i = 0; while (i < a.length) { double(a(i)); i += 1 }; this }
  def ints(a: Array[Int]): Digest = { var i = 0; while (i < a.length) { long(a(i)); i += 1 }; this }
  def matrix(m: Array[Array[Double]]): Digest = { m.foreach(doubles); this }
  def hex: String = f"$h%016x"
}
