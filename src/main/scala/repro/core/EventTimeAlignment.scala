package repro.core

import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.plans.logical._

import repro.core.expressions.{EventTimePlus, HopWstarts, TumbleWend, TumbleWstart}

/** Watermark-alignment analysis of logical plans (paper Section 5,
  * "Operators may erase watermark alignment of event time attributes",
  * and Appendix B.2.3's conservative degradation rule).
  *
  * An output attribute is *aligned* when its values are bounded from
  * below by some source watermark; [[Align]] records which source and how
  * the completeness threshold relates to the value:
  * a grouping on the attribute with key `v` is complete at processing
  * time `p` iff `wm(p) >= v + deltaMs` (non-strict window bounds) or
  * `wm(p) > v` (strict — raw event timestamps).
  *
  * The analysis runs on the analyzed plan, seeded with each registered
  * TVR's event-time column as the TVR's view outputs it (found by
  * [[StreamSqlSession]], which knows the views): strict, delta 0.
  * Propagation follows the paper's conservative rule: only verbatim
  * forwarding, grouping keys, and the windowing expressions preserve
  * alignment; anything else degrades the attribute to a plain TIMESTAMP.
  * A UNION column is aligned only if every branch's column is.
  */
object EventTimeAlignment {

  /** Alignment of one attribute with the watermark of TVR `source`. */
  final case class Align(source: String, deltaMs: Long, strict: Boolean)

  /** Alignment of an arbitrary expression given child-attribute aligns. */
  def exprAlign(e: Expression, m: Map[ExprId, Align]): Option[Align] = e match {
    case a: AttributeReference        => m.get(a.exprId)
    case Alias(child, _)              => exprAlign(child, m)
    case TumbleWstart(ts, dur, _)     => exprAlign(ts, m).map(a => Align(a.source, dur, strict = false))
    case TumbleWend(ts, _, _)         => exprAlign(ts, m).map(a => Align(a.source, 0L, strict = false))
    case EventTimePlus(ts, millis)    => exprAlign(ts, m).map(a => a.copy(deltaMs = a.deltaMs - millis))
    case Cast(child, t, _, _) if t.typeName == "timestamp" => exprAlign(child, m)
    case _                            => None
  }

  /** Bottom-up alignment of `plan`'s output attributes; `seeds` are
    * aligned where a view outputs them.
    */
  def analyze(plan: LogicalPlan, seeds: Map[ExprId, Align]): Map[ExprId, Align] = {
    val perChild     = plan.children.map(analyze(_, seeds))
    val fromChildren = perChild.foldLeft(Map.empty[ExprId, Align])(_ ++ _)

    plan match {
      case Project(projectList, _) =>
        projectList.flatMap { ne =>
          exprAlign(ne, fromChildren).map(ne.exprId -> _)
        }.toMap

      case agg @ Aggregate(groupingExprs, aggExprs, _, _) =>
        // Only grouping keys keep alignment through an aggregation; an
        // aggregate function loses the watermark bound. (`agg` named for
        // exhaustivity side conditions below.)
        val _ = agg
        aggExprs.flatMap { ne =>
          val keyExpr = ne match {
            case Alias(child, _) => child
            case other           => other
          }
          val isGroupKey = groupingExprs.exists(_.semanticEquals(keyExpr))
          if (isGroupKey) exprAlign(keyExpr, fromChildren).map(ne.exprId -> _) else None
        }.toMap

      case g @ Generate(explode: Explode, _, _, _, generatorOutput, _) =>
        val hopAlign = explode.child match {
          case HopWstarts(ts, dur, _, _) => exprAlign(ts, fromChildren).map(a => Align(a.source, dur, strict = false))
          case _ => None
        }
        val gen = hopAlign match {
          case Some(al) => generatorOutput.map(_.exprId -> al).toMap
          case None     => Map.empty[ExprId, Align]
        }
        fromChildren.view.filterKeys(id => g.outputSet.exists(_.exprId == id)).toMap ++ gen

      case v: View => seeds.view.filterKeys(id => v.output.exists(_.exprId == id)).toMap

      case u: Union =>
        // A UNION outputs its first branch's attributes. A column is
        // aligned only if it is in every branch; it keeps the first one's
        // alignment (and so its watermark).
        u.output.indices.flatMap { i =>
          val aligns = u.children.zip(perChild).map { case (c, m) => m.get(c.output(i).exprId) }
          Option.when(aligns.forall(_.isDefined))(u.output(i).exprId -> aligns.head.get)
        }.toMap

      case other =>
        // Conservative passthrough, leaves included: only attributes
        // forwarded verbatim (same ExprId in the node's output) stay
        // aligned.
        fromChildren.view.filterKeys(id => other.outputSet.exists(_.exprId == id)).toMap
    }
  }

  /** Aligned columns of the plan's *output*, by column name. */
  def outputAlignment(plan: LogicalPlan, seeds: Map[ExprId, Align]): Seq[(String, Align)] = {
    val m = analyze(plan, seeds)
    plan.output.flatMap(a => m.get(a.exprId).map(a.name -> _))
  }
}
