package repro.core

import org.apache.spark.sql.catalyst.expressions.ExprId
import org.apache.spark.sql.catalyst.plans.logical._

import repro.core.EventTimeAlignment.Align

/** Streaming-SQL analysis failure (our analogue of AnalysisException,
  * whose constructors are error-class-keyed in Spark 4).
  */
final class StreamSqlAnalysisException(message: String) extends RuntimeException(message)

/** Extension 2's static requirement: *"Every GROUP BY clause with an
  * unbounded input is required to include at least one event-time column
  * as a grouping key."* Without it, no grouping over a stream could ever
  * be declared complete and operator state would grow without bound
  * (paper Section 5, "finite state over infinite input").
  *
  * Checked once, on the analyzed plan of the query, like Structured
  * Streaming's `UnsupportedOperationChecker`. Every operator that groups
  * rows is checked: GROUP BY on a non-constant key, DISTINCT, UNION
  * (a DISTINCT over UNION ALL), INTERSECT and EXCEPT, ALL or not.
  */
object RequireEventTimeGrouping {

  /** Throws if a grouping in `plan` reads a view for which `unbounded`
    * holds and none of its keys is aligned, given the event-time `seeds`
    * of [[EventTimeAlignment.analyze]].
    */
  def apply(plan: LogicalPlan, seeds: Map[ExprId, Align], unbounded: View => Boolean): Unit =
    plan.foreach { node =>
      val grouping = node match {
        case a: Aggregate       => Some("GROUP BY" -> a.groupingExpressions.filterNot(_.foldable))
        case Distinct(u: Union) => Some("UNION" -> u.output)
        case d: Distinct        => Some("DISTINCT" -> d.output)
        case i: Intersect       => Some("INTERSECT" -> i.left.output)
        case e: Except          => Some("EXCEPT" -> e.left.output)
        case _                  => None
      }
      lazy val readsUnbounded = node.exists {
        case v: View => unbounded(v)
        case _       => false
      }
      for ((op, keys) <- grouping if keys.nonEmpty && readsUnbounded) {
        val aligns = node.children.map(EventTimeAlignment.analyze(_, seeds)).reduce(_ ++ _)
        if (!keys.exists(EventTimeAlignment.exprAlign(_, aligns).isDefined))
          throw new StreamSqlAnalysisException(
            s"$op over an unbounded input must include at least one " +
              "event-time column as a grouping key (streaming SQL Extension 2); " +
              s"grouping keys ${keys.map(_.sql).mkString(", ")} carry no watermark alignment.")
      }
    }
}
