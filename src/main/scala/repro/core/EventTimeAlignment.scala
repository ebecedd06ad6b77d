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
  */
object EventTimeAlignment {

  /** Alignment of one attribute with the watermark of TVR `source`. */
  final case class Align(source: String, deltaMs: Long, strict: Boolean)

  private def longLit(e: Expression): Option[Long] = e match {
    case Literal(v: Long, _)    => Some(v)
    case Literal(v: Int, _)     => Some(v.toLong)
    case Cast(c, _, _, _)       => longLit(c)
    case _                      => None
  }

  /** Alignment of an arbitrary expression given child-attribute aligns. */
  def exprAlign(e: Expression, m: Map[ExprId, Align]): Option[Align] = e match {
    case a: AttributeReference        => m.get(a.exprId)
    case Alias(child, _)              => exprAlign(child, m)
    case TumbleWstart(ts, d, _)       =>
      for (a <- exprAlign(ts, m); dur <- longLit(d)) yield Align(a.source, dur, strict = false)
    case TumbleWend(ts, _, _)         =>
      exprAlign(ts, m).map(a => Align(a.source, 0L, strict = false))
    case EventTimePlus(ts, millis)    =>
      for (a <- exprAlign(ts, m); ms <- longLit(millis))
        yield a.copy(deltaMs = a.deltaMs - ms)
    case Cast(child, t, _, _) if t.typeName == "timestamp" => exprAlign(child, m)
    case _                            => None
  }

  /** Bottom-up alignment of `plan`'s output attributes; `seeds` are
    * aligned wherever they appear.
    */
  def analyze(plan: LogicalPlan, seeds: Map[ExprId, Align]): Map[ExprId, Align] = {
    val fromChildren: Map[ExprId, Align] =
      plan.children.map(analyze(_, seeds)).foldLeft(seeds)(_ ++ _)

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
          case HopWstarts(ts, d, _, _) =>
            for (a <- exprAlign(ts, fromChildren); dur <- longLit(d))
              yield Align(a.source, dur, strict = false)
          case _ => None
        }
        val gen = hopAlign match {
          case Some(al) => generatorOutput.map(_.exprId -> al).toMap
          case None     => Map.empty[ExprId, Align]
        }
        fromChildren.view.filterKeys(id => g.outputSet.exists(_.exprId == id)).toMap ++ gen

      case other =>
        // Conservative passthrough, leaves and views included: only
        // attributes forwarded verbatim (same ExprId in the node's output)
        // stay aligned.
        fromChildren.view.filterKeys(id => other.outputSet.exists(_.exprId == id)).toMap
    }
  }

  /** Aligned columns of the plan's *output*, by column name. */
  def outputAlignment(plan: LogicalPlan, seeds: Map[ExprId, Align]): Seq[(String, Align)] = {
    val m = analyze(plan, seeds)
    plan.output.flatMap(a => m.get(a.exprId).map(a.name -> _))
  }
}
