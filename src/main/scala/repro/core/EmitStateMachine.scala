package repro.core

import scala.collection.mutable

import repro.tvr.Diff

/** One row of a stream rendering (Extension 4): a result row, whether it
  * retracts an earlier one, the processing time it is emitted at, and its
  * version within its group.
  */
final case class Change(row: Seq[Any], undo: Boolean, ptime: Long, ver: Int)

/** The materialization rule of Extensions 4–7, applied per group.
  *
  * It is fed the result snapshots of consecutive ticks in ascending
  * processing-time order. A group is the set of rows sharing one `keyOf`
  * value; the evaluator keys on the gate columns, i.e. the event-time
  * window, or on the whole row when there are none. For each group
  * the machine keeps the bag of rows it has materialized, at most one
  * pending fire time, and whether the group is complete. To materialize a
  * group is to emit the bag difference between its materialized rows and
  * its current rows, undos first, and to adopt the current rows. Under
  * `emit`, a group materializes:
  *   - with no modifier, at every tick at which it changed (Listing 9);
  *   - under AFTER WATERMARK, once, at the first tick at which `complete`
  *     holds for its key; later input to it is dropped (Listing 13,
  *     Extension 2);
  *   - under AFTER DELAY d, when its timer fires. A tick that finds the
  *     group differing from its materialized rows, with no timer
  *     pending, arms one at tick + d (Listing 14). Combined with AFTER
  *     WATERMARK, the group also materializes at completion, which
  *     cancels its timer (Extension 7).
  *
  * No input changes between ticks, so a timer firing between two ticks
  * sees the earlier tick's snapshot.
  */
final class EmitStateMachine(
    emit: EmitSpec,
    keyOf: Seq[Any] => Seq[Any],
    complete: (Seq[Any], Long) => Boolean,
) {
  private type Bag = Map[Seq[Any], Int]

  private final class Group {
    var bag: Bag             = Map.empty
    var fireAt: Option[Long] = None
    var completed            = false
    var ver                  = 0
  }

  private val groups = mutable.HashMap.empty[Seq[Any], Group]
  private val timers = mutable.TreeMap.empty[Long, mutable.LinkedHashSet[Seq[Any]]]
  private val out    = mutable.ArrayBuffer.empty[Change]
  // The last tick's snapshot, by group.
  private var latest = Map.empty[Seq[Any], Bag]

  /** Advance to tick `p`, whose result snapshot is the bag `rows`. */
  def tick(p: Long, rows: Seq[Seq[Any]]): Unit = {
    fireUpTo(p - 1)
    val cur = rows.groupBy(keyOf).map { case (k, rs) => k -> rs.groupMapReduce(identity)(_ => 1)(_ + _) }
    // A group in neither snapshot is unchanged, so it is materialized or
    // has a timer pending already.
    for (k <- cur.keySet ++ latest.keySet; g = groups.getOrElseUpdate(k, new Group) if !g.completed) {
      val now = cur.getOrElse(k, Map.empty)
      if (emit.afterWatermark && cur.contains(k) && complete(k, p)) {
        materialize(g, now, p)
        g.completed = true
        g.fireAt.foreach(at => timers(at) -= k)
        g.fireAt = None
      } else emit.delayMs match {
        case None    => if (!emit.afterWatermark) materialize(g, now, p)
        case Some(d) =>
          if (g.fireAt.isEmpty && now != g.bag) {
            g.fireAt = Some(p + d)
            timers.getOrElseUpdate(p + d, mutable.LinkedHashSet.empty) += k
          }
      }
    }
    latest = cur
  }

  /** Fire the timers due by `now`, the processing time observed. */
  def finish(now: Long): Unit = fireUpTo(now)

  /** The stream rendering: every row emitted so far, in emission order. */
  def changelog: Seq[Change] = out.toSeq

  /** The table rendering: the union of the groups' materialized bags. */
  def table: Seq[Seq[Any]] =
    groups.valuesIterator.flatMap(_.bag.iterator.flatMap { case (r, n) => Iterator.fill(n)(r) }).toSeq

  private def fireUpTo(limit: Long): Unit =
    while (timers.nonEmpty && timers.firstKey <= limit) {
      val (at, keys) = timers.head
      timers -= at
      keys.foreach { k =>
        val g = groups(k)
        g.fireAt = None
        materialize(g, latest.getOrElse(k, Map.empty), at)
      }
    }

  private def materialize(g: Group, now: Bag, p: Long): Unit =
    if (now != g.bag) {
      val (ins, dels) = Diff.bagDiff(g.bag, now)
      dels.foreach { r => out += Change(r, undo = true, p, g.ver); g.ver += 1 }
      ins.foreach { r => out += Change(r, undo = false, p, g.ver); g.ver += 1 }
      g.bag = now
    }
}
