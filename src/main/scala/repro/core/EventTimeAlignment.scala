package repro.core

import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.plans.logical._

import repro.core.expressions.{EventTimePlus, HopWstarts, TumbleWend, TumbleWstart}

/** Watermark-alignment analysis of logical plans (paper Section 5,
  * "Operators may erase watermark alignment of event time attributes",
  * and Appendix B.2.3's conservative degradation rule), with
  * Extension 2's check in the same pass.
  *
  * An output attribute is *aligned* when its values are bounded from
  * below by source watermarks; [[Align]] records which sources and how
  * the completeness threshold relates to the value:
  * a grouping on the attribute with key `v` is complete at processing
  * time `p` iff, for every source, `wm(p) >= v + deltaMs` (non-strict
  * window bounds) or `wm(p) > v` (strict — raw event timestamps).
  *
  * One bottom-up pass over the analyzed plan, seeded at each view of a
  * registered TVR with its event-time column (strict, delta 0), follows
  * the paper's conservative rule: only verbatim forwarding, grouping keys
  * and the windowing expressions preserve alignment. A UNION column waits
  * for every branch's watermark, as a union's watermark is the minimum of
  * its inputs' (Akidau et al., VLDB 2015).
  *
  * The same pass checks Extension 2: *"Every GROUP BY clause with an
  * unbounded input is required to include at least one event-time column
  * as a grouping key"*, else no group could ever complete and state would
  * grow without bound. Like Structured Streaming's
  * `UnsupportedOperationChecker`, it checks every operator that groups
  * rows: GROUP BY on a non-constant key, DISTINCT, UNION (a DISTINCT over
  * UNION ALL), INTERSECT and EXCEPT, ALL or not.
  */
object EventTimeAlignment {

  /** Alignment of one attribute with the watermarks of TVRs `sources`. */
  final case class Align(sources: Set[String], deltaMs: Long, strict: Boolean)

  object Align {
    /** Alignment with the watermark of the one TVR `source`. */
    def apply(source: String, deltaMs: Long, strict: Boolean): Align = Align(Set(source), deltaMs, strict)
  }

  /** Alignment of an arbitrary expression given child-attribute aligns. */
  def exprAlign(e: Expression, m: Map[ExprId, Align]): Option[Align] = e match {
    case a: AttributeReference        => m.get(a.exprId)
    case Alias(child, _)              => exprAlign(child, m)
    case TumbleWstart(ts, dur, _)     => exprAlign(ts, m).map(_.copy(deltaMs = dur, strict = false))
    case TumbleWend(ts, _, _)         => exprAlign(ts, m).map(_.copy(deltaMs = 0L, strict = false))
    case EventTimePlus(ts, millis)    => exprAlign(ts, m).map(a => a.copy(deltaMs = a.deltaMs - millis))
    case Cast(child, t, _, _) if t.typeName == "timestamp" => exprAlign(child, m)
    case _                            => None
  }

  /** The alignments of `plan`'s output attributes. A view's are `seed`'s.
    * Throws [[StreamSqlAnalysisException]] where a grouping reads a view
    * for which `unbounded` holds and none of its keys is aligned.
    */
  def analyze(plan: LogicalPlan, seed: View => Map[ExprId, Align], unbounded: View => Boolean): Map[ExprId, Align] = {
    // A node's output alignments, and whether it reads an unbounded view.
    def visit(node: LogicalPlan): (Map[ExprId, Align], Boolean) = {
      val perChild       = node.children.map(visit)
      val fromChildren   = perChild.foldLeft(Map.empty[ExprId, Align])(_ ++ _._1)
      val readsUnbounded = perChild.exists(_._2) || PartialFunction.cond(node) { case v: View => unbounded(v) }
      if (readsUnbounded) requireEventTimeKey(node, fromChildren)
      def forwarded = fromChildren.view.filterKeys(id => node.outputSet.exists(_.exprId == id)).toMap

      val aligns = node match {
        case Project(projectList, _) =>
          projectList.flatMap { ne =>
            exprAlign(ne, fromChildren).map(ne.exprId -> _)
          }.toMap

        case Aggregate(groupingExprs, aggExprs, _, _) =>
          // Only grouping keys keep alignment through an aggregation; an
          // aggregate function loses the watermark bound.
          aggExprs.flatMap { ne =>
            val keyExpr = ne match {
              case Alias(child, _) => child
              case other           => other
            }
            val isGroupKey = groupingExprs.exists(_.semanticEquals(keyExpr))
            if (isGroupKey) exprAlign(keyExpr, fromChildren).map(ne.exprId -> _) else None
          }.toMap

        case Generate(explode: Explode, _, _, _, generatorOutput, _) =>
          val hopAlign = explode.child match {
            case HopWstarts(ts, dur, _, _) => exprAlign(ts, fromChildren).map(_.copy(deltaMs = dur, strict = false))
            case _ => None
          }
          forwarded ++ hopAlign.toSeq.flatMap(al => generatorOutput.map(_.exprId -> al))

        case v: View => seed(v)

        case u: Union =>
          // A UNION outputs its first branch's attributes. A column is
          // aligned if every branch's is, with the same delta and
          // strictness, and then carries all their sources.
          u.output.indices.flatMap { i =>
            u.children.zip(perChild)
              .map { case (c, (m, _)) => m.get(c.output(i).exprId) }
              .reduce { (a, b) =>
                for (x <- a; y <- b if x.deltaMs == y.deltaMs && x.strict == y.strict)
                  yield x.copy(sources = x.sources ++ y.sources)
              }
              .map(u.output(i).exprId -> _)
          }.toMap

        case _ =>
          // Conservative passthrough, leaves included: only attributes
          // forwarded verbatim (same ExprId in the node's output) stay
          // aligned.
          forwarded
      }
      (aligns, readsUnbounded)
    }
    visit(plan)._1
  }

  /** Extension 2 at a node over an unbounded input, given its children's alignments. */
  private def requireEventTimeKey(node: LogicalPlan, fromChildren: Map[ExprId, Align]): Unit = {
    val grouping = node match {
      case a: Aggregate       => Some("GROUP BY" -> a.groupingExpressions.filterNot(_.foldable))
      case Distinct(u: Union) => Some("UNION" -> u.output)
      case d: Distinct        => Some("DISTINCT" -> d.output)
      case i: Intersect       => Some("INTERSECT" -> i.left.output)
      case e: Except          => Some("EXCEPT" -> e.left.output)
      case _                  => None
    }
    for ((op, keys) <- grouping if keys.nonEmpty && !keys.exists(exprAlign(_, fromChildren).isDefined))
      throw new StreamSqlAnalysisException(
        s"$op over an unbounded input must include at least one " +
          "event-time column as a grouping key (streaming SQL Extension 2); " +
          s"grouping keys ${keys.map(_.sql).mkString(", ")} carry no watermark alignment.")
  }
}
