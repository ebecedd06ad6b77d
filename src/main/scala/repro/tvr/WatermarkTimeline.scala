package repro.tvr

/** A watermark: a monotonic function from processing time to event time
  * (paper Section 3.2.2).
  *
  * Represented as the recorded sequence of advances `(ptime, value)`:
  * at processing time `p`, the watermark holds the value of the latest
  * advance with `ptime <= p` (a right-continuous step function), or
  * `Long.MinValue` before the first advance. An advance to value `x` at
  * `p` asserts that every record arriving after `p` has event timestamp
  * strictly greater than `x`.
  */
final case class WatermarkTimeline(advances: Vector[(Long, Long)]) {
  require(
    advances.sliding(2).forall {
      case Vector((p1, v1), (p2, v2)) => p1 <= p2 && v1 <= v2
      case _                          => true
    },
    s"watermark advances must be monotone in both coordinates: $advances"
  )

  /** Watermark value at processing time `p` (Long.MinValue if none yet). */
  def at(p: Long): Long = {
    val past = advances.takeWhile(_._1 <= p)
    if (past.isEmpty) Long.MinValue else past.last._2
  }

  /** First processing time at which the watermark reaches at least
    * `eventTime` (non-strict: `wm >= eventTime`). A grouping keyed on a
    * window *end* is complete from this instant (Extension 2 / Listing 12).
    */
  def firstPtimeAtOrAbove(eventTime: Long): Option[Long] =
    advances.find(_._2 >= eventTime).map(_._1)

  /** Whether a grouping with completeness threshold `eventTime` is
    * complete at processing time `p`. `strict` selects `wm > t` (raw
    * event-time keys) over `wm >= t` (window-end keys).
    */
  def isComplete(eventTime: Long, p: Long, strict: Boolean = false): Boolean = {
    val w = at(p)
    if (strict) w > eventTime else w >= eventTime
  }

  /** The processing times at which this watermark changes. */
  def tickPtimes: Vector[Long] = advances.map(_._1).distinct

  def isEmpty: Boolean = advances.isEmpty
}

object WatermarkTimeline {
  /** Build from `(ptime, value)` pairs in the paper's H:MM notation. */
  def ofHm(pairs: (String, String)*): WatermarkTimeline =
    WatermarkTimeline(pairs.map { case (p, v) => (Times.hm(p), Times.hm(v)) }.toVector)

  val empty: WatermarkTimeline = WatermarkTimeline(Vector.empty)

  /** The *perfect* watermark for a fully recorded stream: at each batch
    * boundary the watermark is (one ms below) the minimum event time of
    * everything that has not yet arrived, which is the tightest bound any
    * real system could know. `arrivals` is `(ptime, eventTime)` pairs.
    */
  def perfect(arrivals: Seq[(Long, Long)], tickEvery: Long): WatermarkTimeline = {
    if (arrivals.isEmpty) return empty
    val sorted = arrivals.sortBy(_._1)
    val maxP   = sorted.last._1
    // Suffix-minimum of event times over arrival order.
    val suffixMin = sorted.scanRight(Long.MaxValue) { case ((_, et), acc) => math.min(et, acc) }
    val ticks = Iterator
      .iterate(sorted.head._1)(_ + tickEvery)
      .takeWhile(_ <= maxP + tickEvery)
      .toVector
    val advances = ticks.map { p =>
      val idx = sorted.indexWhere(_._1 > p) // first not-yet-arrived event
      val v   = if (idx < 0) Long.MaxValue / 2 else suffixMin(idx) - 1
      (p, v)
    }
    // Keep monotone, drop no-op repeats.
    val mono = advances
      .scanLeft((Long.MinValue, Long.MinValue)) { case ((_, acc), (p, v)) => (p, math.max(acc, v)) }
      .drop(1)
    WatermarkTimeline(mono.foldLeft(Vector.empty[(Long, Long)]) { (out, a) =>
      if (out.nonEmpty && out.last._2 == a._2) out else out :+ a
    })
  }
}
