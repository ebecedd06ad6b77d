package repro.core

import java.util.Locale

import org.apache.spark.sql.catalyst.analysis.{UnresolvedAttribute, UnresolvedFunction, UnresolvedStar, UnresolvedTableValuedFunction}
import org.apache.spark.sql.catalyst.expressions.{Alias, Explode, Expression, FunctionTableSubqueryArgumentExpression, Literal, NamedArgumentExpression}
import org.apache.spark.sql.catalyst.parser.CatalystSqlParser
import org.apache.spark.sql.catalyst.plans.logical.{Generate, LogicalPlan, Project, SubqueryAlias, UnresolvedWith}
import org.apache.spark.sql.types.DayTimeIntervalType

import repro.core.expressions.{EventTimePlus, HopWstarts, TumbleWend, TumbleWstart}

/** Lowers the paper's windowing table-valued functions (Extension 3) on
  * Spark's parsed plan.
  *
  * The paper's surface syntax:
  * {{{
  *   Tumble(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
  *          dur => INTERVAL '10' MINUTE [, offset => INTERVAL '0' MINUTE])
  *   Hop(data => TABLE(Bid), timecol => DESCRIPTOR(bidtime),
  *       dur => INTERVAL '10' MINUTE, hopsize => INTERVAL '5' MINUTE
  *       [, offset => ...])
  * }}}
  * Spark's parser reads each call as an `UnresolvedTableValuedFunction`
  * with named arguments; `data` may be any `TABLE(...)` argument, a name
  * or a query. Each call becomes a plan that keeps every column of `data`
  * and appends the event-time interval columns `wstart`/`wend`, per the
  * paper's column convention: `Tumble` is a projection, `Hop` multiplies
  * rows by `explode` over [[repro.core.expressions.HopWstarts]]. The
  * window arithmetic is native Catalyst
  * ([[repro.core.expressions.WindowExpressions]]), built here with
  * constant milliseconds, so no function is registered by name. Like
  * Calcite's `TUMBLE`/`HOP`, the functions are table functions on the
  * parsed tree, not on the text.
  */
object WindowTvfRewriter {

  /** `sql` parsed, with every `Tumble(...)`/`Hop(...)` call lowered. */
  def rewrite(sql: String): LogicalPlan = lower(CatalystSqlParser.parsePlan(sql))

  /** A WITH clause keeps its queries beside its children, where no
    * transform looks; subquery expressions, `TABLE(...)` arguments
    * included, are reached by the `WithSubqueries` traversal.
    */
  private def lower(plan: LogicalPlan): LogicalPlan = plan.transformUpWithSubqueries {
    case w: UnresolvedWith =>
      w.copy(cteRelations = w.cteRelations.map { case (n, q, d) => (n, q.copy(child = lower(q.child)), d) })
    case f: UnresolvedTableValuedFunction if f.name.size == 1 && Params.contains(fn(f)) => lowerCall(f)
  }

  private def fn(f: UnresolvedTableValuedFunction) = f.name.head.toLowerCase(Locale.ROOT)

  /** Each function's argument names; the first three and `hopsize` are required. */
  private val Params = Map(
    "tumble" -> Seq("data", "timecol", "dur", "offset"),
    "hop"    -> Seq("data", "timecol", "dur", "hopsize", "offset"))

  private def fail(fn: String, msg: String): Nothing = throw new StreamSqlAnalysisException(s"$fn: $msg")

  private def lowerCall(f: UnresolvedTableValuedFunction): LogicalPlan = {
    val name = fn(f)
    val args = f.functionArgs.map {
      case NamedArgumentExpression(k, v) => k.toLowerCase(Locale.ROOT) -> v
      case other => fail(name, s"TVF arguments must be named (name => value): '$other'")
    }
    val names = args.map(_._1)
    names.diff(names.distinct).headOption.foreach(k => fail(name, s"duplicate argument '$k'"))
    names.find(!Params(name).contains(_)).foreach(k => fail(name, s"unknown argument '$k'"))
    val byName = args.toMap
    def arg(k: String) = byName.getOrElse(k, fail(name, s"missing required argument '$k'"))
    def positive(k: String) = {
      val ms = intervalMs(arg(k))
      if (ms <= 0) fail(name, s"$k must be positive: ${arg(k)}")
      ms
    }

    val data = arg("data") match {
      case t: FunctionTableSubqueryArgumentExpression
          if t.partitionByExpressions.isEmpty && t.orderByExpressions.isEmpty && !t.withSinglePartition => t.plan
      case other => fail(name, s"data must be TABLE(...) with no partitioning or order: '$other'")
    }
    val ts = arg("timecol") match {
      case UnresolvedFunction(Seq(d), Seq(c: UnresolvedAttribute), _, _, _, _, _) if d.equalsIgnoreCase("descriptor") => c
      case other => fail(name, s"timecol must be DESCRIPTOR(col): '$other'")
    }
    val dur = positive("dur")
    val off = byName.get("offset").map(intervalMs).getOrElse(0L)
    name match {
      case "tumble" =>
        Project(Seq(UnresolvedStar(None), Alias(TumbleWstart(ts, dur, off), "wstart")(),
          Alias(TumbleWend(ts, dur, off), "wend")()), data)
      case "hop" =>
        val ws = UnresolvedAttribute("__ws")
        Project(Seq(UnresolvedStar(Some(Seq("__src"))), Alias(ws, "wstart")(), Alias(EventTimePlus(ws, dur), "wend")()),
          Generate(Explode(HopWstarts(ts, dur, positive("hopsize"), off)), Nil, outer = false, Some("__h"), Seq(ws),
            SubqueryAlias("__src", data)))
    }
  }

  /** The milliseconds of a day-time interval literal such as
    * `INTERVAL '10' MINUTE`; anything else, or a part of a millisecond,
    * is an error.
    */
  private[core] def intervalMs(e: Expression): Long = e match {
    case Literal(us: Long, _: DayTimeIntervalType) if us % 1000 == 0 => us / 1000
    case Literal(_, _: DayTimeIntervalType) =>
      throw new StreamSqlAnalysisException(s"interval is not a whole number of milliseconds: $e")
    case _ => throw new StreamSqlAnalysisException(s"not a day-time interval literal: $e")
  }
}
