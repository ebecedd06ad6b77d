package repro.core

import org.apache.spark.sql.catalyst.expressions.Attribute
import org.apache.spark.sql.catalyst.plans.logical.{Aggregate, LogicalPlan}
import org.apache.spark.sql.catalyst.rules.Rule

import repro.tvr.Tvr

/** Streaming-SQL analysis failure (our analogue of AnalysisException,
  * whose constructors are error-class-keyed in Spark 4).
  */
final class StreamSqlAnalysisException(message: String) extends RuntimeException(message)

/** Extension 2's static requirement as a Catalyst rule: *"Every GROUP BY
  * clause with an unbounded input is required to include at least one
  * event-time column as a grouping key."* Without it, no grouping over a
  * stream could ever be declared complete and operator state would grow
  * without bound (paper Section 5, "finite state over infinite input").
  *
  * Injected via `spark.experimental.extraOptimizations` (the runtime
  * extension point for `Rule[LogicalPlan]`); it validates and returns the
  * plan unchanged. Unbounded-ness is read from the column metadata
  * stamped by [[StreamSqlSession]], so the rule is inert for ordinary
  * batch queries in the same session.
  */
object RequireEventTimeGrouping extends Rule[LogicalPlan] {

  override def apply(plan: LogicalPlan): LogicalPlan = {
    plan.foreach {
      case Aggregate(allKeys, _, child, _) =>
        // The tick a lifted query groups by is not a grouping key of the SQL.
        val groupingExprs = allKeys.filterNot {
          case a: Attribute => a.metadata.contains(Tvr.TickKey)
          case _            => false
        }
        if (groupingExprs.nonEmpty && EventTimeAlignment.readsUnbounded(child)) {
          val childAligns = EventTimeAlignment.analyze(child)
          val hasEventTimeKey =
            groupingExprs.exists(g => EventTimeAlignment.exprAlign(g, childAligns).isDefined)
          if (!hasEventTimeKey)
            throw new StreamSqlAnalysisException(
              "GROUP BY over an unbounded input must include at least one " +
                "event-time column as a grouping key (streaming SQL Extension 2); " +
                s"grouping keys ${groupingExprs.map(_.sql).mkString(", ")} carry no watermark alignment.")
        }
      case _ => ()
    }
    plan
  }
}
