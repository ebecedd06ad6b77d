package repro.core.expressions

import org.apache.spark.sql.{Column, PlanFrames}
import org.apache.spark.sql.catalyst.expressions.{ExpectsInputTypes, Expression, UnaryExpression}
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.catalyst.util.GenericArrayData
import org.apache.spark.sql.types._

/** Native Catalyst expressions implementing the paper's event-time
  * windowing TVFs (Extension 3) at the expression layer.
  *
  * `Tumble`/`Hop` are *table-valued* in the paper; Spark SQL has no
  * user-defined polymorphic TVFs, so [[repro.core.WindowTvfRewriter]]
  * lowers a TVF call in the parsed plan into a projection over these
  * expressions (plus an `explode` generator for Hop's row expansion).
  * No SQL text calls them by name: the lowering and DataFrame code
  * ([[WindowExpressions.tumble]]) build them directly.
  *
  * Durations and the offset are constant milliseconds, fields of the
  * expression: its one child is the timestamp, which must be a TIMESTAMP,
  * and a null one gives null. Timestamps use Catalyst's internal
  * microsecond encoding.
  */
abstract class WindowExpression extends UnaryExpression with ExpectsInputTypes with CodegenFallback {
  override def inputTypes = Seq(TimestampType) // a Seq[AbstractDataType], a type private to Spark
  override def dataType: DataType = TimestampType
}

/** Start of the tumbling window of width `durMs` (offset `offMs`)
  * containing timestamp `child`: the paper's `wstart` for `Tumble`.
  */
case class TumbleWstart(child: Expression, durMs: Long, offMs: Long) extends WindowExpression {
  override def prettyName: String = "tumble_wstart"

  override protected def nullSafeEval(ts: Any): Any = WindowExpressions.start(ts, durMs, offMs)

  override protected def withNewChildInternal(c: Expression): Expression = copy(child = c)
}

/** End (exclusive) of the tumbling window containing `child`. */
case class TumbleWend(child: Expression, durMs: Long, offMs: Long) extends WindowExpression {
  override def prettyName: String = "tumble_wend"

  override protected def nullSafeEval(ts: Any): Any = WindowExpressions.start(ts, durMs, offMs) + durMs * 1000L

  override protected def withNewChildInternal(c: Expression): Expression = copy(child = c)
}

/** All hopping-window start timestamps covering `child`: windows are
  * `[off + k*hop, off + k*hop + dur)`; a row belongs to every window
  * whose interval contains its timestamp (paper Section 6.4.2). Returned
  * ascending; `Hop`'s row expansion is `explode` over this array.
  */
case class HopWstarts(child: Expression, durMs: Long, hopMs: Long, offMs: Long) extends WindowExpression {
  override def dataType: DataType = ArrayType(TimestampType, containsNull = false)
  override def prettyName: String = "hop_wstarts"

  override protected def nullSafeEval(ts: Any): Any = {
    val micros = ts.asInstanceOf[Long]
    val starts = Iterator
      .iterate(WindowExpressions.start(ts, hopMs, offMs))(_ - hopMs * 1000L) // latest start <= ts
      .takeWhile(_ + durMs * 1000L > micros) // window still covers ts
      .toArray
      .reverse
    new GenericArrayData(starts)
  }

  override protected def withNewChildInternal(c: Expression): Expression = copy(child = c)
}

/** `child + millis` preserving the watermark alignment tracked by
  * [[repro.core.EventTimeAlignment]] (plain timestamp
  * arithmetic would conservatively degrade the attribute — Section 5).
  * Used by the Hop lowering to derive `wend = wstart + dur`.
  */
case class EventTimePlus(child: Expression, millis: Long) extends WindowExpression {
  override def prettyName: String = "event_time_plus"

  override protected def nullSafeEval(ts: Any): Any = ts.asInstanceOf[Long] + millis * 1000L

  override protected def withNewChildInternal(c: Expression): Expression = copy(child = c)
}

object WindowExpressions {
  /** `(tumble_wstart, tumble_wend)` of `ts` (offset 0) as DataFrame
    * columns.
    */
  def tumble(ts: Column, durMs: Long): (Column, Column) = {
    val t = PlanFrames.expression(ts)
    (PlanFrames.column(TumbleWstart(t, durMs, 0L)), PlanFrames.column(TumbleWend(t, durMs, 0L)))
  }

  /** The start, in microseconds, of the window of `durMs` on the grid
    * shifted by `offMs` that holds the timestamp `ts`.
    */
  private[expressions] def start(ts: Any, durMs: Long, offMs: Long): Long = {
    val (dur, off) = (durMs * 1000L, offMs * 1000L)
    Math.floorDiv(ts.asInstanceOf[Long] - off, dur) * dur + off
  }
}
