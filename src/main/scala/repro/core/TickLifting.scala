package repro.core

import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.aggregate.AggregateExpression
import org.apache.spark.sql.catalyst.plans._
import org.apache.spark.sql.catalyst.plans.logical._
import org.apache.spark.sql.types.LongType

import repro.tvr.Tvr

/** Lifts a query over processing time, so that one Spark query computes
  * its result snapshot at every tick at once (the lifting of DBSP, Budiu
  * et al., VLDB 2023).
  *
  * The input is the analyzed plan of the query over snapshot views. Each
  * view of a registered TVR (stream or table) is replaced by its ticked
  * relation ([[Tvr.snapshotsAt]]), under the view's own output
  * attributes, so every expression above still binds; any other leaf
  * (VALUES, a SELECT without FROM) is crossed with the ticks. Every
  * lifted node then carries a `__tick` attribute, threaded upward:
  *   - Project outputs it, Aggregate groups by it; Filter, Sort, Distinct,
  *     Generate, SubqueryAlias and View pass it through;
  *   - a join equates its sides' ticks, Q7's self-join included;
  *   - set operations line their branches up, the tick last;
  *   - a global aggregate (no GROUP BY) also aggregates one input-less row
  *     per tick, which its aggregate functions filter out, so it yields
  *     its row at ticks with no input (`COUNT(*)` = 0).
  *
  * Any other operator, and any subquery expression, throws
  * [[StreamSqlAnalysisException]] naming it.
  *
  * The lifting also tells the caller, per view, whether an operator above
  * it exchanges rows (`exchanges`), so the caller can read a small
  * input in one partition where that saves an exchange, and nowhere else.
  */
private[core] object TickLifting {

  /** `plan` lifted over `ticks`; its output is the plan's, then `__tick`.
    * `ticked(v, exchanged)` gives a fresh ticked relation for a view of a
    * registered TVR, and None for any other view; `exchanged` says
    * whether an operator above `v` exchanges rows.
    */
  def lift(plan: LogicalPlan, ticks: Seq[Long], ticked: (View, Boolean) => Option[LogicalPlan]): LogicalPlan = {
    val Lifted(p, t) = new Lifting(ticks, ticked).lift(plan, exchanged = false)
    Project(plan.output :+ t, p)
  }

  /** Whether Spark runs `p`, lifted, with an exchange of its input's rows
    * (by key and tick) unless that input is in one partition: the cases
    * of `liftOperator` that cluster, join or order their rows.
    */
  private def exchanges(p: LogicalPlan): Boolean = p match {
    case _: Aggregate | _: Join | _: Distinct | _: Intersect | _: Except => true
    case s: Sort                                                        => s.global
    case _                                                              => false
  }

  private final case class Lifted(plan: LogicalPlan, tick: Attribute)

  private def unsupported(what: String): Nothing =
    throw new StreamSqlAnalysisException(s"$what is not supported: the query cannot be lifted over ticks")

  private final class Lifting(ticks: Seq[Long], ticked: (View, Boolean) => Option[LogicalPlan]) {

    /** The ticks as a relation of their own. */
    private def tickRelation(): LocalRelation =
      LocalRelation(Seq(AttributeReference(Tvr.TickCol, LongType, nullable = false)()),
        ticks.map(InternalRow(_)))

    /** `p` lifted; `exchanged` says whether an operator above it exchanges rows. */
    def lift(p: LogicalPlan, exchanged: Boolean): Lifted = {
      if (p.expressions.exists(SubqueryExpression.hasSubquery)) unsupported("A subquery expression")
      def kids = p.children.map(lift(_, exchanged || exchanges(p)))
      p match {
        case v: View => ticked(v, exchanged).map(tickedView(v, _)).getOrElse(liftOperator(v, kids))
        case leaf: LeafNode =>
          // The same rows at every tick.
          val r = tickRelation()
          Lifted(Join(leaf, r, Cross, None, JoinHint.NONE), r.output.head)
        case _ => liftOperator(p, kids)
      }
    }

    /** The view's relation, ticked, under the view's output attributes. */
    private def tickedView(v: View, rel: LogicalPlan): Lifted = {
      require(rel.output.size == v.output.size + 1, s"ticked relation of ${v.desc.identifier}: ${rel.output}")
      val data = v.output.zip(rel.output).map { case (a, d) =>
        Alias(d, a.name)(exprId = a.exprId, qualifier = a.qualifier, explicitMetadata = Some(a.metadata))
      }
      Lifted(Project(data :+ rel.output.last, rel), rel.output.last)
    }

    /** A branch of a set operation: its own columns, then the tick. */
    private def aligned(orig: LogicalPlan, k: Lifted): LogicalPlan = Project(orig.output :+ k.tick, k.plan)

    // An operator lifted here that exchanges rows belongs in `exchanges`.
    private def liftOperator(p: LogicalPlan, kids: Seq[Lifted]): Lifted = (p, kids) match {
      case (pr: Project, Seq(Lifted(c, t)))   => Lifted(pr.copy(projectList = pr.projectList :+ t, child = c), t)
      case (f: Filter, Seq(Lifted(c, t)))     => Lifted(f.copy(child = c), t)
      // Rows are bucketed by tick in the order they arrive, so each tick's
      // rows keep the ORDER BY order.
      case (s: Sort, Seq(Lifted(c, t)))       => Lifted(s.copy(child = c), t)
      case (d: Distinct, Seq(Lifted(c, t)))   => Lifted(d.copy(child = c), t)
      case (g: Generate, Seq(Lifted(c, t)))   => Lifted(g.copy(child = c), t)
      case (s: SubqueryAlias, Seq(Lifted(c, t))) => Lifted(s.copy(child = c), t)
      case (v: View, Seq(Lifted(c, t)))       => Lifted(v.copy(child = c), t)
      case (a: Aggregate, Seq(Lifted(c, t))) if a.groupingExpressions.nonEmpty =>
        Lifted(a.copy(groupingExpressions = a.groupingExpressions :+ t,
          aggregateExpressions = a.aggregateExpressions :+ t, child = c), t)
      case (a: Aggregate, Seq(Lifted(c, t))) => globalAggregate(a, c, t)
      case (j: Join, Seq(l, r))              => join(j, l, r)
      case (u: Union, _) =>
        val lifted = u.copy(children = u.children.zip(kids).map((aligned _).tupled))
        Lifted(lifted, lifted.output.last)
      case (i: Intersect, Seq(l, r)) =>
        val lifted = i.copy(left = aligned(i.left, l), right = aligned(i.right, r))
        Lifted(lifted, lifted.output.last)
      case (e: Except, Seq(l, r)) =>
        val lifted = e.copy(left = aligned(e.left, l), right = aligned(e.right, r))
        Lifted(lifted, lifted.output.last)
      case _ => unsupported(s"Operator ${p.nodeName}")
    }

    /** A join, tick by tick; a FULL JOIN's tick is whichever side has one. */
    private def join(j: Join, l: Lifted, r: Lifted): Lifted = {
      val same   = EqualTo(l.tick, r.tick)
      val joined = j.copy(left = l.plan, right = r.plan, condition = Some(j.condition.fold[Expression](same)(And(same, _))))
      j.joinType match {
        case FullOuter =>
          val t = Alias(Coalesce(Seq(l.tick, r.tick)), Tvr.TickCol)()
          Lifted(Project(joined.output :+ t, joined), t.toAttribute)
        case RightOuter => Lifted(joined, r.tick)
        case _          => Lifted(joined, l.tick)
      }
    }

    /** A global aggregate yields one row per tick, input or not: each
      * tick adds one input-less row, which every aggregate function
      * filters out.
      */
    private def globalAggregate(a: Aggregate, c: LogicalPlan, t: Attribute): Lifted = {
      val rel   = tickRelation()
      val input = Project(c.output :+ Alias(Literal(true), "__input")(), c)
      val none  = Project(
        c.output.map(o => if (o.exprId == t.exprId) rel.output.head else Alias(Literal(null, o.dataType), o.name)()) :+
          Alias(Literal(false), "__input")(), rel)
      val both     = Union(Seq(input, none))
      val isInput  = both.output.last
      val aggExprs = a.aggregateExpressions.map(_.transform {
        case ae: AggregateExpression => ae.copy(filter = Some(ae.filter.fold[Expression](isInput)(And(isInput, _))))
      }.asInstanceOf[NamedExpression])
      Lifted(a.copy(groupingExpressions = Seq(t), aggregateExpressions = aggExprs :+ t, child = both), t)
    }
  }
}
