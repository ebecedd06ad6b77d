package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite

import repro.PropSupport

/** Properties of the EMIT state machine on its own, without Spark: random
  * per-tick bags over several groups, random completion ticks per group
  * and random delays.
  */
class EmitStateMachineSpec extends AnyFunSuite with PropSupport {
  import EmitStateMachineSpec.Input

  private val genInput: Gen[Input] = for {
    groups     <- Gen.choose(1, 4)
    n          <- Gen.choose(1, 12)
    gaps       <- Gen.listOfN(n, Gen.choose(1L, 5L))
    row         = Gen.zip(Gen.choose(0, groups - 1), Gen.choose(0, 2)).map { case (g, v) => Seq[Any](g, v) }
    bags       <- Gen.listOfN(n, Gen.choose(0, 6).flatMap(Gen.listOfN(_, row)))
    ptimes      = gaps.scanLeft(0L)(_ + _).tail
    completeAt <- Gen.listOfN(groups, Gen.choose(0L, ptimes.last + 5))
    delay      <- Gen.choose(0L, 8L)
    extra      <- Gen.choose(0L, 10L)
  } yield Input(ptimes.zip(bags), completeAt, delay, ptimes.last + extra)

  private def group(r: Seq[Any]): Int = r.head.asInstanceOf[Int]

  private def complete(in: Input)(key: Seq[Any], p: Long): Boolean =
    p >= in.completeAt(group(key))

  private def run(emit: EmitSpec, in: Input): EmitStateMachine = {
    val m = new EmitStateMachine(emit, r => Seq(r.head), complete(in))
    in.ticks.foreach { case (p, rows) => m.tick(p, rows) }
    m.finish(in.now)
    m
  }

  private def modes(d: Long): Seq[EmitSpec] = Seq(
    EmitSpec(stream = true),
    EmitSpec(stream = true, afterWatermark = true),
    EmitSpec(stream = true, delayMs = Some(d)),
    EmitSpec(stream = true, afterWatermark = true, delayMs = Some(d)),
  )

  private def bag(rows: Seq[Seq[Any]]): Map[Seq[Any], Int] = rows.groupMapReduce(identity)(_ => 1)(_ + _)

  private def fold(chs: Seq[Change]): Map[Seq[Any], Int] =
    chs.groupMapReduce(_.row)(c => if (c.undo) -1 else 1)(_ + _).filter(_._2 != 0)

  test("folding the changelog gives the materialized bags, in every mode") {
    checkProp(Prop.forAll(genInput) { in =>
      modes(in.delay).forall { emit =>
        val m = run(emit, in)
        val f = fold(m.changelog)
        f.values.forall(_ > 0) && f == bag(m.table)
      }
    })
  }

  test("in continuous mode the fold is the last snapshot") {
    checkProp(Prop.forAll(genInput) { in =>
      fold(run(EmitSpec(stream = true), in).changelog) == bag(in.ticks.last._2)
    })
  }

  test("under AFTER DELAY d the fold is the last snapshot once every timer has fired") {
    checkProp(Prop.forAll(genInput) { in =>
      val last = in.ticks.last
      val m    = run(EmitSpec(stream = true, delayMs = Some(in.delay)), in.copy(now = last._1 + in.delay))
      fold(m.changelog) == bag(last._2)
    })
  }

  test("ver runs 0..k-1 per group and ptimes never decrease") {
    checkProp(Prop.forAll(genInput) { in =>
      modes(in.delay).forall { emit =>
        val chs = run(emit, in).changelog
        chs.groupBy(c => group(c.row)).values.forall(cs => cs.map(_.ver) == cs.indices) &&
          chs.map(_.ptime) == chs.map(_.ptime).sorted
      }
    })
  }

  test("under AFTER DELAY d alone a group's emission ptimes are more than d apart") {
    checkProp(Prop.forAll(genInput) { in =>
      val chs = run(EmitSpec(stream = true, delayMs = Some(in.delay)), in).changelog
      chs.groupBy(c => group(c.row)).values.forall { cs =>
        val ps = cs.map(_.ptime).distinct
        ps.zip(ps.drop(1)).forall { case (a, b) => b - a > in.delay }
      }
    })
  }

  test("under AFTER WATERMARK each group emits once, at a ptime where it is complete") {
    checkProp(Prop.forAll(genInput) { in =>
      val chs = run(EmitSpec(stream = true, afterWatermark = true), in).changelog
      chs.groupBy(c => group(c.row)).values.forall { cs =>
        val ps = cs.map(_.ptime).distinct
        ps.size == 1 && complete(in)(cs.head.row, ps.head) && cs.forall(!_.undo)
      }
    })
  }
}

object EmitStateMachineSpec {
  /** Rows are (group, value); a group completes from tick `completeAt(g)`. */
  final case class Input(
      ticks: Seq[(Long, Seq[Seq[Any]])],
      completeAt: Seq[Long],
      delay: Long,
      now: Long,
  )
}
