package repro.core.expressions

import org.apache.spark.sql.{Column, PlanFrames, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Expression, Literal}
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.catalyst.util.GenericArrayData
import org.apache.spark.sql.types._

/** Native Catalyst expressions implementing the paper's event-time
  * windowing TVFs (Extension 3) at the expression layer.
  *
  * `Tumble`/`Hop` are *table-valued* in the paper; Spark SQL has no
  * user-defined polymorphic TVFs, so [[repro.core.WindowTvfRewriter]]
  * rewrites a TVF call into a projection over these expressions (plus a
  * `LATERAL VIEW explode` for Hop's row expansion). SQL calls them by
  * name once [[WindowExpressions.register]] has put them in a session's
  * `FunctionRegistry`, the extension point for new expressions;
  * DataFrame code builds them directly ([[WindowExpressions.tumble]]).
  *
  * Durations/offsets arrive as epoch-millisecond integral literals
  * (the rewriter lowers `INTERVAL '10' MINUTE` to `600000`). Timestamps
  * use Catalyst's internal microsecond encoding.
  */
abstract class WindowExpression extends Expression with CodegenFallback {
  override def nullable: Boolean = true

  protected def integralMillis(e: Expression, input: InternalRow): Long =
    e.eval(input) match {
      case null         => throw new IllegalArgumentException(s"$prettyName: null duration")
      case n: java.lang.Number => n.longValue()
      case other        => throw new IllegalArgumentException(s"$prettyName: not integral: $other")
    }

  override def checkInputDataTypes(): org.apache.spark.sql.catalyst.analysis.TypeCheckResult = {
    val ok = children.head.dataType.isInstanceOf[TimestampType] &&
      children.tail.forall(c => c.dataType == LongType || c.dataType == IntegerType)
    if (ok) org.apache.spark.sql.catalyst.analysis.TypeCheckResult.TypeCheckSuccess
    else org.apache.spark.sql.catalyst.analysis.TypeCheckResult.TypeCheckFailure(
      s"$prettyName expects (TIMESTAMP, integral millis...), got ${children.map(_.dataType)}")
  }
}

/** Start of the tumbling window of width `durMs` (offset `offMs`)
  * containing timestamp `ts`: the paper's `wstart` for `Tumble`.
  */
case class TumbleWstart(ts: Expression, durMs: Expression, offMs: Expression)
    extends WindowExpression {
  override def children: Seq[Expression] = Seq(ts, durMs, offMs)
  override def dataType: DataType        = TimestampType
  override def prettyName: String        = "tumble_wstart"

  override def eval(input: InternalRow): Any = {
    val t = ts.eval(input)
    if (t == null) return null
    val micros = t.asInstanceOf[Long]
    val dur    = integralMillis(durMs, input) * 1000L
    val off    = integralMillis(offMs, input) * 1000L
    Math.floorDiv(micros - off, dur) * dur + off
  }

  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(ts = c(0), durMs = c(1), offMs = c(2))
}

/** End (exclusive) of the tumbling window containing `ts`. */
case class TumbleWend(ts: Expression, durMs: Expression, offMs: Expression)
    extends WindowExpression {
  override def children: Seq[Expression] = Seq(ts, durMs, offMs)
  override def dataType: DataType        = TimestampType
  override def prettyName: String        = "tumble_wend"

  override def eval(input: InternalRow): Any = {
    val t = ts.eval(input)
    if (t == null) return null
    val micros = t.asInstanceOf[Long]
    val dur    = integralMillis(durMs, input) * 1000L
    val off    = integralMillis(offMs, input) * 1000L
    Math.floorDiv(micros - off, dur) * dur + off + dur
  }

  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(ts = c(0), durMs = c(1), offMs = c(2))
}

/** All hopping-window start timestamps covering `ts`: windows are
  * `[off + k*hop, off + k*hop + dur)`; a row belongs to every window
  * whose interval contains its timestamp (paper Section 6.4.2). Returned
  * ascending; `Hop`'s row expansion is `explode` over this array.
  */
case class HopWstarts(ts: Expression, durMs: Expression, hopMs: Expression, offMs: Expression)
    extends WindowExpression {
  override def children: Seq[Expression] = Seq(ts, durMs, hopMs, offMs)
  override def dataType: DataType        = ArrayType(TimestampType, containsNull = false)
  override def prettyName: String        = "hop_wstarts"

  override def eval(input: InternalRow): Any = {
    val t = ts.eval(input)
    if (t == null) return null
    val micros = t.asInstanceOf[Long]
    val dur    = integralMillis(durMs, input) * 1000L
    val hop    = integralMillis(hopMs, input) * 1000L
    val off    = integralMillis(offMs, input) * 1000L
    val last   = Math.floorDiv(micros - off, hop) * hop + off // latest start <= ts
    val starts = Iterator
      .iterate(last)(_ - hop)
      .takeWhile(s => s + dur > micros) // window still covers ts
      .toArray
      .reverse
    new GenericArrayData(starts)
  }

  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(ts = c(0), durMs = c(1), hopMs = c(2), offMs = c(3))
}

/** `ts + millis` preserving the watermark alignment tracked by
  * [[repro.core.EventTimeAlignment]] (plain timestamp
  * arithmetic would conservatively degrade the attribute — Section 5).
  * Used by the Hop rewrite to derive `wend = wstart + dur`.
  */
case class EventTimePlus(ts: Expression, millis: Expression) extends WindowExpression {
  override def children: Seq[Expression] = Seq(ts, millis)
  override def dataType: DataType        = TimestampType
  override def prettyName: String        = "event_time_plus"

  override def eval(input: InternalRow): Any = {
    val t = ts.eval(input)
    if (t == null) return null
    t.asInstanceOf[Long] + integralMillis(millis, input) * 1000L
  }

  override protected def withNewChildrenInternal(c: IndexedSeq[Expression]): Expression =
    copy(ts = c(0), millis = c(1))
}

object WindowExpressions {
  /** `(tumble_wstart, tumble_wend)` of `ts` (offset 0) as DataFrame
    * columns.
    */
  def tumble(ts: Column, durMs: Long): (Column, Column) = {
    val t = PlanFrames.expression(ts)
    (PlanFrames.column(TumbleWstart(t, Literal(durMs), Literal(0L))),
      PlanFrames.column(TumbleWend(t, Literal(durMs), Literal(0L))))
  }

  /** Register the window expressions as SQL-callable functions in the
    * given session; a second call replaces them.
    */
  def register(spark: SparkSession): Unit = {
    val reg = spark.sessionState.functionRegistry
    reg.createOrReplaceTempFunction("tumble_wstart", args => {
      require(args.size == 3, s"tumble_wstart(ts, durMs, offMs), got ${args.size} args")
      TumbleWstart(args(0), args(1), args(2))
    }, "built-in")
    reg.createOrReplaceTempFunction("tumble_wend", args => {
      require(args.size == 3, s"tumble_wend(ts, durMs, offMs), got ${args.size} args")
      TumbleWend(args(0), args(1), args(2))
    }, "built-in")
    reg.createOrReplaceTempFunction("hop_wstarts", args => {
      require(args.size == 4, s"hop_wstarts(ts, durMs, hopMs, offMs), got ${args.size} args")
      HopWstarts(args(0), args(1), args(2), args(3))
    }, "built-in")
    reg.createOrReplaceTempFunction("event_time_plus", args => {
      require(args.size == 2, s"event_time_plus(ts, millis), got ${args.size} args")
      EventTimePlus(args(0), args(1))
    }, "built-in")
  }
}
